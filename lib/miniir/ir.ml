(** MiniIR: a from-scratch SSA intermediate representation standing in for
    LLVM IR (Section 5 of the paper).  Functions are lists of basic blocks;
    each block holds φ-nodes, a body of instructions, and a terminator.
    Virtual registers are named; every instruction carries a unique integer
    id that is {e stable across cloning}, which is how the CodeMapper and
    the OSR machinery track program points across optimization. *)

type reg = string

type value =
  | Reg of reg
  | Const of int
  | Undef  (** poison-like placeholder; reading it in the VM is an error *)

let equal_value a b =
  match (a, b) with
  | Reg x, Reg y -> String.equal x y
  | Const x, Const y -> Int.equal x y
  | Undef, Undef -> true
  | (Reg _ | Const _ | Undef), _ -> false

type binop = Add | Sub | Mul | Sdiv | Srem | Shl | Lshr | Ashr | And | Or | Xor

type icmp = Eq | Ne | Slt | Sle | Sgt | Sge

(** Right-hand sides.  [Store] and void [Call]s produce no result. *)
type rhs =
  | Binop of binop * value * value
  | Icmp of icmp * value * value
  | Select of value * value * value  (** select cond, vtrue, vfalse *)
  | Alloca of int  (** allocate this many contiguous cells; yields the base address *)
  | Load of value  (** load from address *)
  | Store of value * value  (** store value, address *)
  | Call of string * value list  (** call to a named intrinsic *)
  | Phi of (string * value) list  (** (incoming block label, value) pairs *)

type instr = {
  id : int;  (** unique within the function, stable across clones *)
  mutable result : reg option;
  mutable rhs : rhs;
}

type terminator =
  | Br of string
  | Cbr of value * string * string  (** cond, then-label, else-label *)
  | Ret of value
  | Unreachable

type block = {
  mutable label : string;
  mutable phis : instr list;
  mutable body : instr list;
  mutable term : terminator;
  term_id : int;  (** terminators are program points too *)
}

type func = {
  fname : string;
  params : reg list;
  mutable blocks : block list;  (** entry block first *)
  mutable next_id : int;  (** id generator, kept with the function *)
  mutable next_reg : int;  (** fresh register counter *)
}

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let entry (f : func) : block =
  match f.blocks with
  | b :: _ -> b
  | [] -> invalid_arg "Ir.entry: function has no blocks"

let find_block (f : func) (label : string) : block option =
  List.find_opt (fun b -> String.equal b.label label) f.blocks

let block_exn (f : func) (label : string) : block =
  match find_block f label with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Ir.block_exn: no block %S in @%s" label f.fname)

(** Tables keyed by register names or block labels, compared with
    [String.equal]. *)
module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash (s : string) = Hashtbl.hash s
end)

let successors_of_term : terminator -> string list = function
  | Br l -> [ l ]
  | Cbr (_, a, b) -> if String.equal a b then [ a ] else [ a; b ]
  | Ret _ | Unreachable -> []

let successors (b : block) = successors_of_term b.term

let predecessors (f : func) (label : string) : string list =
  List.filter_map
    (fun b -> if List.mem label (successors b) then Some b.label else None)
    f.blocks

(** All instructions of a block in execution order: φ-nodes then body. *)
let block_instrs (b : block) : instr list = b.phis @ b.body

(** Every instruction of the function (no terminators). *)
let all_instrs (f : func) : instr list = List.concat_map block_instrs f.blocks

let instr_count (f : func) : int =
  List.fold_left (fun acc b -> acc + List.length b.phis + List.length b.body) 0 f.blocks

let phi_count (f : func) : int =
  List.fold_left (fun acc b -> acc + List.length b.phis) 0 f.blocks

(** Operand values of an rhs, in order.  For φ-nodes this is every incoming
    value; use {!phi_incoming} when the edge matters. *)
let rhs_operands : rhs -> value list = function
  | Binop (_, a, b) -> [ a; b ]
  | Icmp (_, a, b) -> [ a; b ]
  | Select (c, t, e) -> [ c; t; e ]
  | Alloca _ -> []
  | Load a -> [ a ]
  | Store (v, a) -> [ v; a ]
  | Call (_, args) -> args
  | Phi incoming -> List.map snd incoming

let term_operands : terminator -> value list = function
  | Cbr (c, _, _) -> [ c ]
  | Ret v -> [ v ]
  | Br _ | Unreachable -> []

(** [List.iter fn (rhs_operands r)] and [List.exists p (rhs_operands r)],
    and the same for terminators, without building the list. *)
let iter_rhs_operands (fn : value -> unit) : rhs -> unit = function
  | Binop (_, a, b) | Icmp (_, a, b) | Store (a, b) ->
      fn a;
      fn b
  | Select (c, a, b) ->
      fn c;
      fn a;
      fn b
  | Alloca _ -> ()
  | Load a -> fn a
  | Call (_, args) -> List.iter fn args
  | Phi incoming -> List.iter (fun (_, v) -> fn v) incoming

let exists_rhs_operand (p : value -> bool) : rhs -> bool = function
  | Binop (_, a, b) | Icmp (_, a, b) | Store (a, b) -> p a || p b
  | Select (c, a, b) -> p c || p a || p b
  | Alloca _ -> false
  | Load a -> p a
  | Call (_, args) -> List.exists p args
  | Phi incoming -> List.exists (fun (_, v) -> p v) incoming

let iter_term_operands (fn : value -> unit) : terminator -> unit = function
  | Cbr (c, _, _) | Ret c -> fn c
  | Br _ | Unreachable -> ()

let exists_term_operand (p : value -> bool) : terminator -> bool = function
  | Cbr (c, _, _) | Ret c -> p c
  | Br _ | Unreachable -> false

(** Registers read by an rhs. *)
let rhs_uses (r : rhs) : reg list =
  List.filter_map (function Reg x -> Some x | Const _ | Undef -> None) (rhs_operands r)

let term_uses (t : terminator) : reg list =
  List.filter_map (function Reg x -> Some x | Const _ | Undef -> None) (term_operands t)

(** Map a function over every operand of an rhs. *)
let map_rhs_operands (fn : value -> value) : rhs -> rhs = function
  | Binop (op, a, b) -> Binop (op, fn a, fn b)
  | Icmp (op, a, b) -> Icmp (op, fn a, fn b)
  | Select (c, t, e) -> Select (fn c, fn t, fn e)
  | (Alloca _) as a -> a
  | Load a -> Load (fn a)
  | Store (v, a) -> Store (fn v, fn a)
  | Call (name, args) -> Call (name, List.map fn args)
  | Phi incoming -> Phi (List.map (fun (l, v) -> (l, fn v)) incoming)

let map_term_operands (fn : value -> value) : terminator -> terminator = function
  | Cbr (c, a, b) -> Cbr (fn c, a, b)
  | Ret v -> Ret (fn v)
  | (Br _ | Unreachable) as t -> t

(** Does this rhs touch memory or have side effects (pass barrier)? *)
let has_side_effects (r : rhs) : bool =
  match r with
  | Store _ -> true
  | Call (name, _) -> not (List.mem name [ "abs"; "min"; "max"; "clz"; "hash" ])
  | Binop _ | Icmp _ | Select _ | Alloca _ | Load _ | Phi _ -> false

(** Pure intrinsics the whole toolchain agrees on (re-executable by
    compensation code, CSE-able, dead-code-removable). *)
let is_pure_call (name : string) = List.mem name [ "abs"; "min"; "max"; "clz"; "hash" ]

(** Can evaluating this rhs trap?  Division and remainder can (by zero),
    and so can a shift whose amount is not a constant in [\[0, 62\]] — the
    range both engines evaluate.  Code motion must not make such an rhs
    run where it did not, nor skip it where it ran. *)
let may_trap (r : rhs) : bool =
  match r with
  | Binop ((Sdiv | Srem), _, _) -> true
  | Binop ((Shl | Lshr | Ashr), _, Const k) -> k < 0 || k > 62
  | Binop ((Shl | Lshr | Ashr), _, (Reg _ | Undef)) -> true
  | Binop _ | Icmp _ | Select _ | Call _ | Alloca _ | Load _ | Store _ | Phi _ -> false

(** May this rhs be re-executed freely at a different program point given an
    unchanged memory state?  Loads additionally need the no-intervening-store
    analysis done by the OSR layer. *)
let is_reexecutable (r : rhs) : bool =
  match r with
  | Binop ((Sdiv | Srem), _, _) -> true  (* guarded by the original execution *)
  | Binop _ | Icmp _ | Select _ -> true
  | Call (name, _) -> is_pure_call name
  | Load _ -> true  (* subject to memory-epoch check *)
  | Alloca _ | Store _ | Phi _ -> false

(* ------------------------------------------------------------------ *)
(* Definition lookup                                                    *)
(* ------------------------------------------------------------------ *)

type def_site = { di : instr; block : string; in_phis : bool }

(** Register → its defining instruction, the last one should a register be
    defined twice.  The one definition table: every pass and check that
    looks definitions up by name builds it here. *)
let def_table (f : func) : def_site Names.t =
  let t = Names.create (max 64 (f.next_id / 2)) in
  List.iter
    (fun b ->
      let add in_phis i =
        match i.result with
        | Some r -> Names.replace t r { di = i; block = b.label; in_phis }
        | None -> ()
      in
      List.iter (add true) b.phis;
      List.iter (add false) b.body)
    f.blocks;
  t

(** Call [fn id anchor] for every body instruction and terminator [id]
    whose block has, at or after it (the terminator included), an id that
    satisfies [keep]: [anchor] is the first such id.  One backward walk per
    block.  This is the landing rule of OSR points and of source points
    whose instruction an optimization removed; φ-nodes are not points. *)
let iter_first_kept ~(keep : int -> bool) (f : func) (fn : int -> int -> unit) : unit =
  List.iter
    (fun b ->
      let found = ref false and cur = ref 0 in
      let visit id =
        if keep id then begin
          found := true;
          cur := id
        end;
        if !found then fn id !cur
      in
      visit b.term_id;
      List.iter (fun i -> visit i.id) (List.rev b.body))
    f.blocks

(* ------------------------------------------------------------------ *)
(* Construction helpers                                                 *)
(* ------------------------------------------------------------------ *)

let fresh_id (f : func) : int =
  let id = f.next_id in
  f.next_id <- id + 1;
  id

(** [numbered prefix n] is [Printf.sprintf "%s.%d" prefix n] without the
    format interpreter: registers and labels are named this way by the
    thousand. *)
let numbered (prefix : string) (n : int) : string = prefix ^ "." ^ string_of_int n

let fresh_reg ?(hint = "t") (f : func) : reg =
  let r = numbered hint f.next_reg in
  f.next_reg <- f.next_reg + 1;
  r

(** Deep-copy a function, preserving instruction ids, register names and
    block labels — the [clone] step of the paper's [apply] (Section 5.4). *)
let clone_func (f : func) : func =
  let clone_instr (i : instr) = { id = i.id; result = i.result; rhs = i.rhs } in
  let clone_block (b : block) =
    {
      label = b.label;
      phis = List.map clone_instr b.phis;
      body = List.map clone_instr b.body;
      term = b.term;
      term_id = b.term_id;
    }
  in
  {
    fname = f.fname;
    params = f.params;
    blocks = List.map clone_block f.blocks;
    next_id = f.next_id;
    next_reg = f.next_reg;
  }

let equal_rhs (x : rhs) (y : rhs) : bool =
  x == y
  ||
  match (x, y) with
  | Binop (o, p, q), Binop (o', p', q') -> o == o' && equal_value p p' && equal_value q q'
  | Icmp (o, p, q), Icmp (o', p', q') -> o == o' && equal_value p p' && equal_value q q'
  | Select (c, p, q), Select (c', p', q') -> equal_value c c' && equal_value p p' && equal_value q q'
  | Alloca n, Alloca n' -> Int.equal n n'
  | Load p, Load p' -> equal_value p p'
  | Store (p, q), Store (p', q') -> equal_value p p' && equal_value q q'
  | Call (name, args), Call (name', args') ->
      String.equal name name' && List.equal equal_value args args'
  | Phi inc, Phi inc' ->
      List.equal (fun (l, v) (l', v') -> String.equal l l' && equal_value v v') inc inc'
  | (Binop _ | Icmp _ | Select _ | Alloca _ | Load _ | Store _ | Call _ | Phi _), _ -> false

let equal_instr (i : instr) (j : instr) : bool =
  Int.equal i.id j.id && Option.equal String.equal i.result j.result && equal_rhs i.rhs j.rhs

let equal_term (x : terminator) (y : terminator) : bool =
  x == y
  ||
  match (x, y) with
  | Br l, Br l' -> String.equal l l'
  | Cbr (c, l, m), Cbr (c', l', m') -> equal_value c c' && String.equal l l' && String.equal m m'
  | Ret v, Ret v' -> equal_value v v'
  | Unreachable, Unreachable -> true
  | (Br _ | Cbr _ | Ret _ | Unreachable), _ -> false

let equal_block (x : block) (y : block) : bool =
  String.equal x.label y.label
  && List.equal equal_instr x.phis y.phis
  && List.equal equal_instr x.body y.body
  && equal_term x.term y.term && Int.equal x.term_id y.term_id

(** Do [a] and [b] have the same blocks and counters?  Compares labels,
    φ and body instructions (ids, results, right-hand sides), terminators
    and their ids, [next_id] and [next_reg]; [fname] and [params] are not
    compared.  Allocates nothing. *)
let equal_func (a : func) (b : func) : bool =
  Int.equal a.next_id b.next_id && Int.equal a.next_reg b.next_reg
  && List.equal equal_block a.blocks b.blocks

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)
(* ------------------------------------------------------------------ *)

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Sdiv -> "sdiv"
  | Srem -> "srem"
  | Shl -> "shl"
  | Lshr -> "lshr"
  | Ashr -> "ashr"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"

let icmp_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Slt -> "slt"
  | Sle -> "sle"
  | Sgt -> "sgt"
  | Sge -> "sge"

let value_to_string = function
  | Reg r -> "%" ^ r
  | Const n -> string_of_int n
  | Undef -> "undef"

let rhs_to_string (r : rhs) : string =
  let v = value_to_string in
  match r with
  | Binop (op, a, b) -> Printf.sprintf "%s %s, %s" (binop_name op) (v a) (v b)
  | Icmp (op, a, b) -> Printf.sprintf "icmp %s %s, %s" (icmp_name op) (v a) (v b)
  | Select (c, t, e) -> Printf.sprintf "select %s, %s, %s" (v c) (v t) (v e)
  | Alloca n -> if n = 1 then "alloca" else Printf.sprintf "alloca %d" n
  | Load a -> Printf.sprintf "load %s" (v a)
  | Store (x, a) -> Printf.sprintf "store %s, %s" (v x) (v a)
  | Call (name, args) ->
      Printf.sprintf "call @%s(%s)" name (String.concat ", " (List.map v args))
  | Phi incoming ->
      Printf.sprintf "phi %s"
        (String.concat ", "
           (List.map (fun (l, x) -> Printf.sprintf "[%s: %s]" l (v x)) incoming))

let instr_to_string (i : instr) : string =
  match i.result with
  | Some r -> Printf.sprintf "%%%s = %s" r (rhs_to_string i.rhs)
  | None -> rhs_to_string i.rhs

let term_to_string : terminator -> string = function
  | Br l -> "br " ^ l
  | Cbr (c, a, b) -> Printf.sprintf "cbr %s, %s, %s" (value_to_string c) a b
  | Ret v -> "ret " ^ value_to_string v
  | Unreachable -> "unreachable"

let func_to_string (f : func) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "func @%s(%s) {\n" f.fname
       (String.concat ", " (List.map (fun p -> "%" ^ p) f.params)));
  List.iter
    (fun b ->
      Buffer.add_string buf (b.label ^ ":\n");
      List.iter
        (fun i -> Buffer.add_string buf (Printf.sprintf "  %s  ; #%d\n" (instr_to_string i) i.id))
        (block_instrs b);
      Buffer.add_string buf (Printf.sprintf "  %s  ; #%d\n" (term_to_string b.term) b.term_id))
    f.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
