(** A small structured-kernel DSL that lowers to alloca-form MiniIR — the
    stand-in for "C compiled by clang -O0".  Scalar slots play the role of
    source-level user variables; the lowering records debug metadata (the
    analogue of [llvm.dbg.value]): which instructions define which user
    variable, and which instruction ids begin a source statement (possible
    breakpoint locations for the Section 7 study). *)

module Ir = Miniir.Ir
module Builder = Miniir.Builder

type expr =
  | Const of int
  | Param of string
  | Slot of string  (** read a user variable *)
  | Arr of string * expr  (** array read, index masked to the array size *)
  | Bin of Ir.binop * expr * expr
  | Cmp of Ir.icmp * expr * expr
  | Sel of expr * expr * expr
  | Intr of string * expr list  (** pure intrinsic *)

type stmt =
  | Set of string * expr  (** user variable assignment *)
  | Arr_set of string * expr * expr  (** array write: arr, index, value *)
  | For of { i : string; below : expr; body : stmt list }
      (** counted loop: [for i = 0; i < below; i++]; [i] is a user var *)
  | If of expr * stmt list * stmt list
  | Emit of expr  (** observable output (impure call) *)
  | Seq of stmt list  (** grouping without a new source location *)

type kernel = {
  kname : string;
  params : string list;
  arrays : (string * int) list;  (** name, power-of-two size *)
  locals : string list;  (** user variables (beyond loop counters) *)
  body : stmt list;
  ret : expr;
}

(** Debug metadata produced by lowering (all ids are pre-mem2reg but stable
    across it for surviving instructions). *)
type debug_info = {
  user_vars : string list;
  source_points : int list;  (** first instruction id of each statement *)
  def_sites : (string * int) list;  (** (user var, defining instr id) *)
}

(* ------------------------------------------------------------------ *)

type lower_state = {
  b : Builder.t;
  arrays_tbl : (string, int) Hashtbl.t;
  mutable label_counter : int;
  mutable src_points : int list;
  mutable defs : (string * int) list;
}

let slot_reg u = u ^ ".slot"

let fresh_label st prefix =
  let n = st.label_counter in
  st.label_counter <- n + 1;
  Ir.numbered prefix n

(* Record the next instruction emitted as a source point: we peek at the
   function's id counter. *)
let mark_source_point st = st.src_points <- st.b.Builder.func.Ir.next_id :: st.src_points

let rec lower_expr (st : lower_state) (e : expr) : Ir.value =
  match e with
  | Const n -> Ir.Const n
  | Param p -> Builder.param st.b p
  | Slot u -> Builder.load st.b (Ir.Reg (slot_reg u))
  | Arr (a, idx) ->
      let size =
        match Hashtbl.find_opt st.arrays_tbl a with
        | Some s -> s
        | None -> invalid_arg (Printf.sprintf "Dsl: unknown array %S" a)
      in
      let i = lower_expr st idx in
      let masked = Builder.band st.b i (Ir.Const (size - 1)) in
      let addr = Builder.add st.b (Ir.Reg (slot_reg a)) masked in
      Builder.load st.b addr
  | Bin (op, a, b) ->
      let va = lower_expr st a in
      let vb = lower_expr st b in
      Builder.binop st.b op va vb
  | Cmp (op, a, b) ->
      let va = lower_expr st a in
      let vb = lower_expr st b in
      Builder.icmp st.b op va vb
  | Sel (c, t, f) ->
      let vc = lower_expr st c in
      let vt = lower_expr st t in
      let vf = lower_expr st f in
      Builder.select st.b vc vt vf
  | Intr (name, args) ->
      let vs = List.map (lower_expr st) args in
      Builder.call st.b name vs

let rec lower_stmt (st : lower_state) (s : stmt) : unit =
  (match s with Seq _ -> () | _ -> mark_source_point st);
  match s with
  | Seq ss -> List.iter (lower_stmt st) ss
  | Set (u, e) ->
      let v = lower_expr st e in
      (* Route the value through a named register so the user variable's
         definition survives mem2reg under a recognizable name (our
         llvm.dbg.value analogue). *)
      let named = Builder.bor ~reg:(Ir.fresh_reg ~hint:(u ^ ".def") st.b.Builder.func) st.b v (Ir.Const 0) in
      (match named with
      | Ir.Reg r ->
          let id = st.b.Builder.func.Ir.next_id - 1 in
          ignore r;
          st.defs <- (u, id) :: st.defs
      | _ -> ());
      Builder.store st.b named (Ir.Reg (slot_reg u))
  | Arr_set (a, idx, e) ->
      let size =
        match Hashtbl.find_opt st.arrays_tbl a with
        | Some s -> s
        | None -> invalid_arg (Printf.sprintf "Dsl: unknown array %S" a)
      in
      let i = lower_expr st idx in
      let masked = Builder.band st.b i (Ir.Const (size - 1)) in
      let addr = Builder.add st.b (Ir.Reg (slot_reg a)) masked in
      let v = lower_expr st e in
      Builder.store st.b v addr
  | Emit e ->
      let v = lower_expr st e in
      Builder.call_void st.b "emit" [ v ]
  | If (c, tb, fb) ->
      let vc = lower_expr st c in
      let lt = fresh_label st "then" and lf = fresh_label st "else" in
      let lj = fresh_label st "join" in
      Builder.cbr st.b vc lt lf;
      Builder.add_block_at st.b lt;
      List.iter (lower_stmt st) tb;
      Builder.br st.b lj;
      Builder.add_block_at st.b lf;
      List.iter (lower_stmt st) fb;
      Builder.br st.b lj;
      Builder.add_block_at st.b lj
  | For { i; below; body } ->
      (* i = 0; head: if (i < below) { body; i++; goto head } *)
      lower_stmt st (Seq [ Set (i, Const 0) ]);
      let bound = lower_expr st below in
      let lh = fresh_label st "head" in
      let lb = fresh_label st "body" and lx = fresh_label st "exit" in
      Builder.br st.b lh;
      Builder.add_block_at st.b lh;
      let iv = Builder.load st.b (Ir.Reg (slot_reg i)) in
      let c = Builder.icmp st.b Ir.Slt iv bound in
      Builder.cbr st.b c lb lx;
      Builder.add_block_at st.b lb;
      List.iter (lower_stmt st) body;
      lower_stmt st (Seq [ Set (i, Bin (Ir.Add, Slot i, Const 1)) ]);
      Builder.br st.b lh;
      Builder.add_block_at st.b lx

(* Collect all user variables mentioned by a kernel (locals + counters). *)
let rec stmt_vars (s : stmt) : string list =
  match s with
  | Set (u, _) -> [ u ]
  | For { i; body; _ } -> i :: List.concat_map stmt_vars body
  | If (_, a, b) -> List.concat_map stmt_vars a @ List.concat_map stmt_vars b
  | Seq ss -> List.concat_map stmt_vars ss
  | Arr_set _ | Emit _ -> []

(** Lower a kernel to its alloca-form function plus debug metadata. *)
let lower (k : kernel) : Ir.func * debug_info =
  let b = Builder.create ~name:k.kname ~params:k.params in
  Builder.add_block_at b "entry";
  let st =
    { b; arrays_tbl = Hashtbl.create 8; label_counter = 0; src_points = []; defs = [] }
  in
  let user_vars =
    List.sort_uniq String.compare (k.locals @ List.concat_map stmt_vars k.body)
  in
  List.iter (fun u -> ignore (Builder.alloca ~reg:(slot_reg u) b : Ir.value)) user_vars;
  List.iter
    (fun (a, size) ->
      Hashtbl.replace st.arrays_tbl a size;
      ignore (Builder.alloca ~reg:(slot_reg a) ~size b : Ir.value))
    k.arrays;
  (* Initialize user variables from a parameter-derived mix rather than
     zero: C locals hold junk or input-derived data, and all-zero initial
     stores would let SCCP fold half of a function away, skewing the
     Section 7 statistics. *)
  let init_base =
    match k.params with p0 :: _ -> Builder.param b p0 | [] -> Ir.Const 0
  in
  List.iteri
    (fun idx u ->
      let mixed = Builder.bxor b init_base (Ir.Const (idx * 7)) in
      Builder.store b mixed (Ir.Reg (slot_reg u)))
    user_vars;
  List.iter (lower_stmt st) k.body;
  let v = lower_expr st (k.ret) in
  Builder.ret b v;
  let f = Builder.finish b in
  (f, { user_vars; source_points = List.rev st.src_points; def_sites = List.rev st.defs })

(** Lower and promote: the paper's [fbase].  Source points that mem2reg
    removed (loads/stores) are remapped to the next surviving instruction
    of the same block: the OSR landing rule, {!Ir.iter_first_kept}. *)
let to_fbase (k : kernel) : Ir.func * debug_info =
  let raw, dbg = lower k in
  let fbase = Passes.Pass_manager.to_fbase raw in
  (* Raw ids are [fbase]'s too; the ids mem2reg added are larger. *)
  let survives = Array.make fbase.next_id false in
  List.iter
    (fun (b : Ir.block) ->
      List.iter (fun (i : Ir.instr) -> survives.(i.id) <- true) b.body;
      survives.(b.term_id) <- true)
    fbase.blocks;
  let remap = Array.make raw.next_id (-1) in
  Ir.iter_first_kept ~keep:(Array.get survives) raw (fun id anchor -> remap.(id) <- anchor);
  let source_points =
    List.sort_uniq compare
      (List.filter_map
         (fun p -> if p < raw.next_id && remap.(p) >= 0 then Some remap.(p) else None)
         dbg.source_points)
  in
  (fbase, { dbg with source_points })
