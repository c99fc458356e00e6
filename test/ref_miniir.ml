(** Test-only oracles for the MiniIR analyses, moved out of the library:
    the original [Set.Make(String)] liveness that the bitset
    [Miniir.Liveness] replaced; the definition table, [Func_index],
    [Dom] and [Loops.compute] as they were before the dense [Func_index]
    (label-keyed [Hashtbl]s, [Dom] numbering labels itself), with the
    cross-check of that index against the linear [Ir] accessors it
    replaced; and the SSA verifier that the one-walk [Miniir.Verifier]
    replaced.  [Suite_miniir] runs the liveness against the library on
    generated functions and the corpus, and compares every query of the
    dense index with the frozen one; [Suite_front] runs the verifier
    against the library on mutated pipeline outputs.  The frozen index's
    block ownership is the block of its [positions] table, so
    [Func_index.check] compares owners through [positions].
    [Verifier.verify] is a verbatim copy of the code it replaced and
    shares the library's [error] type.

    Edits since the copies were made: the frozen block and point analyses
    were added, and [Func_index.check] and [Verifier.verify] now read
    them (the frozen [def_table], [block_of_instr], [Func_index],
    [Dom.compute], [Dom.instr_dominates]) instead of the library's;
    [check] moved into the frozen [Func_index] module. *)

module Ir = Miniir.Ir

(* ------------------------------------------------------------------ *)
(* Liveness over string sets                                            *)
(* ------------------------------------------------------------------ *)

module Liveness = struct
  module SSet = Set.Make (String)

  type t = {
    live_before : (int, SSet.t) Hashtbl.t;  (** instruction/terminator id → set *)
    live_out : (string, SSet.t) Hashtbl.t;  (** block label → live-out *)
  }

  let compute (f : Ir.func) : t =
    let phi_defs (b : Ir.block) =
      List.fold_left
        (fun s (i : Ir.instr) ->
          match i.result with Some r -> SSet.add r s | None -> s)
        SSet.empty b.phis
    in
    let phi_uses_from (b : Ir.block) ~(pred : string) =
      List.fold_left
        (fun s (i : Ir.instr) ->
          match i.rhs with
          | Ir.Phi incoming ->
              List.fold_left
                (fun s (l, v) ->
                  match v with
                  | Ir.Reg r when String.equal l pred -> SSet.add r s
                  | Ir.Reg _ | Ir.Const _ | Ir.Undef -> s)
                s incoming
          | _ -> s)
        SSet.empty b.phis
    in
    (* Backward transfer through terminator and body; returns live at body
       start (before the first body instruction, after the φ-nodes). *)
    let through_block (b : Ir.block) (out : SSet.t) : SSet.t =
      let live = List.fold_left (fun s r -> SSet.add r s) out (Ir.term_uses b.term) in
      List.fold_left
        (fun live (i : Ir.instr) ->
          let live = match i.result with Some r -> SSet.remove r live | None -> live in
          List.fold_left (fun s r -> SSet.add r s) live (Ir.rhs_uses i.rhs))
        live (List.rev b.body)
    in
    let live_in = Hashtbl.create 16 in
    let live_out = Hashtbl.create 16 in
    List.iter
      (fun (b : Ir.block) ->
        Hashtbl.replace live_in b.label SSet.empty;
        Hashtbl.replace live_out b.label SSet.empty)
      f.blocks;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (b : Ir.block) ->
          let out =
            List.fold_left
              (fun acc s ->
                match Ir.find_block f s with
                | Some sb ->
                    SSet.union acc
                      (SSet.union (Hashtbl.find live_in s) (phi_uses_from sb ~pred:b.label))
                | None -> acc)
              SSet.empty (Ir.successors b)
          in
          let inn = SSet.diff (through_block b out) (phi_defs b) in
          if not (SSet.equal out (Hashtbl.find live_out b.label)) then begin
            Hashtbl.replace live_out b.label out;
            changed := true
          end;
          if not (SSet.equal inn (Hashtbl.find live_in b.label)) then begin
            Hashtbl.replace live_in b.label inn;
            changed := true
          end)
        (List.rev f.blocks)
    done;
    (* Final per-instruction pass. *)
    let live_before = Hashtbl.create 64 in
    List.iter
      (fun (b : Ir.block) ->
        let out = Hashtbl.find live_out b.label in
        let live = List.fold_left (fun s r -> SSet.add r s) out (Ir.term_uses b.term) in
        Hashtbl.replace live_before b.term_id live;
        let live =
          List.fold_left
            (fun live (i : Ir.instr) ->
              let live' =
                let l = match i.result with Some r -> SSet.remove r live | None -> live in
                List.fold_left (fun s r -> SSet.add r s) l (Ir.rhs_uses i.rhs)
              in
              Hashtbl.replace live_before i.id live';
              live')
            live (List.rev b.body)
        in
        List.iter (fun (i : Ir.instr) -> Hashtbl.replace live_before i.id live) b.phis)
      f.blocks;
    { live_before; live_out }

  let live_at (t : t) (id : int) : string list =
    match Hashtbl.find_opt t.live_before id with
    | Some s -> SSet.elements s
    | None -> []

  let is_live (t : t) (id : int) (r : string) : bool =
    match Hashtbl.find_opt t.live_before id with Some s -> SSet.mem r s | None -> false

  let live_out_of (t : t) (label : string) : string list =
    match Hashtbl.find_opt t.live_out label with Some s -> SSet.elements s | None -> []
end

(* ------------------------------------------------------------------ *)
(* The block and point analyses before the dense Func_index             *)
(* ------------------------------------------------------------------ *)

(* The definition and owner tables, the index, the dominator tree and the
   loop detection as they were while the index kept label-keyed [Hashtbl]s and
   [Dom] numbered labels itself: verbatim copies, so the reference copies
   in this directory stay independent of the code they are compared
   against.  Edits: names qualified to compile outside their module,
   [Dom.compute] calls the library's [Miniir.Dom.numbered] (the one CHK
   fixpoint, unchanged), and [Loops] re-exports the library's [loop]
   record and [in_loop] so loop lists compare directly. *)

(** Map from register to its (unique, by SSA) defining instruction. *)
let def_table (f : Ir.func) : (Ir.reg, Ir.def_site) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) -> match i.result with Some r -> Hashtbl.replace t r { Ir.di = i; block = b.label; in_phis = true } | None -> ())
        b.phis;
      List.iter
        (fun (i : Ir.instr) -> match i.result with Some r -> Hashtbl.replace t r { Ir.di = i; block = b.label; in_phis = false } | None -> ())
        b.body)
    f.blocks;
  t

(** Map from instruction id to its block label. *)
let block_of_instr (f : Ir.func) : (int, string) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter (fun (i : Ir.instr) -> Hashtbl.replace t i.id b.label) (Ir.block_instrs b);
      Hashtbl.replace t b.term_id b.label)
    f.blocks;
  t

module Func_index = struct
type t = {
  func : Ir.func;
  blocks : (string, Ir.block) Hashtbl.t;  (** label → block *)
  positions : (int, string * int) Hashtbl.t;
      (** instruction/terminator id → (block, index): φ-nodes share index 0,
          the body starts at 1, the terminator sits after the body *)
  preds : (string, string list) Hashtbl.t;  (** label → predecessor labels *)
  succs : (string, string list) Hashtbl.t;  (** label → successor labels *)
  param_set : (Ir.reg, unit) Hashtbl.t;
  defs : (Ir.reg, Ir.def_site) Hashtbl.t;  (** register → unique SSA definition *)
}

let make (f : Ir.func) : t =
  (* Pre-sized so no table grows while it is filled: ids come from
     [f.next_id], and there is at most one definition per id.  A [Hashtbl]
     resizes only past two bindings per bucket, so half the count is
     enough. *)
  let n_blocks = List.length f.blocks / 2 in
  let n_ids = f.next_id / 2 in
  let blocks = Hashtbl.create n_blocks in
  let positions = Hashtbl.create n_ids in
  let preds = Hashtbl.create n_blocks in
  let succs = Hashtbl.create n_blocks in
  let param_set = Hashtbl.create 8 in
  let defs = Hashtbl.create n_ids in
  List.iter (fun p -> Hashtbl.replace param_set p ()) f.params;
  List.iter
    (fun (b : Ir.block) ->
      Hashtbl.replace blocks b.label b;
      Hashtbl.replace preds b.label [])
    f.blocks;
  List.iter
    (fun (b : Ir.block) ->
      let record_instr ~in_phis ~pos (i : Ir.instr) =
        Hashtbl.replace positions i.id (b.label, pos);
        match i.result with
        | Some r -> Hashtbl.replace defs r { Ir.di = i; block = b.label; in_phis }
        | None -> ()
      in
      List.iter (record_instr ~in_phis:true ~pos:0) b.phis;
      List.iteri (fun k i -> record_instr ~in_phis:false ~pos:(k + 1) i) b.body;
      Hashtbl.replace positions b.term_id (b.label, List.length b.body + 1);
      let ss = Ir.successors b in
      Hashtbl.replace succs b.label ss;
      List.iter
        (fun s ->
          match Hashtbl.find_opt preds s with
          | Some ps -> Hashtbl.replace preds s (b.label :: ps)
          | None -> ())
        ss)
    f.blocks;
  (* Predecessors were consed on; put them back in block order. *)
  Hashtbl.filter_map_inplace (fun _ ps -> Some (List.rev ps)) preds;
  { func = f; blocks; positions; preds; succs; param_set; defs }

(* ------------------------------------------------------------------ *)
(* Queries (mirroring the linear Ir accessors)                          *)
(* ------------------------------------------------------------------ *)

let find_block (t : t) (label : string) : Ir.block option = Hashtbl.find_opt t.blocks label

let block_exn (t : t) (label : string) : Ir.block =
  match Hashtbl.find_opt t.blocks label with
  | Some b -> b
  | None ->
      invalid_arg (Printf.sprintf "Func_index.block_exn: no block %S in @%s" label t.func.fname)

let position_of (t : t) (id : int) : (string * int) option = Hashtbl.find_opt t.positions id

(** Block label of an instruction or terminator id. *)
let owner_of (t : t) (id : int) : string option = Option.map fst (position_of t id)

(** Predecessor labels, in block order (matches {!Ir.predecessors}). *)
let predecessors (t : t) (label : string) : string list =
  Option.value ~default:[] (Hashtbl.find_opt t.preds label)

let successors (t : t) (label : string) : string list =
  Option.value ~default:[] (Hashtbl.find_opt t.succs label)

let is_param (t : t) (r : Ir.reg) : bool = Hashtbl.mem t.param_set r

let def_of (t : t) (r : Ir.reg) : Ir.def_site option = Hashtbl.find_opt t.defs r

  (** Verify the index agrees with the linear accessors it replaces.
      Returns an error description on the first mismatch. *)
  let check (t : t) : (unit, string) result =
    let f = t.func in
    let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
    let rec check_blocks = function
      | [] -> Ok ()
      | (b : Ir.block) :: rest ->
          if Ir.find_block f b.label <> find_block t b.label then
            fail "block %S: index and Ir.find_block disagree" b.label
          else if List.sort compare (Ir.predecessors f b.label)
                  <> List.sort compare (predecessors t b.label)
          then fail "block %S: predecessor mismatch" b.label
          else if Ir.successors b <> successors t b.label then
            fail "block %S: successor mismatch" b.label
          else check_blocks rest
    in
    match check_blocks f.blocks with
    | Error _ as e -> e
    | Ok () ->
        let ok = ref (Ok ()) in
        let legacy_owner = block_of_instr f in
        Hashtbl.iter
          (fun id (label, _) ->
            if !ok = Ok () && Hashtbl.find_opt legacy_owner id <> Some label then
              ok := fail "instr #%d: owner mismatch" id)
          t.positions;
        (match !ok with
        | Ok () ->
            let legacy_defs = def_table f in
            Hashtbl.iter
              (fun r (d : Ir.def_site) ->
                match Hashtbl.find_opt legacy_defs r with
                | Some d' when d'.Ir.di == d.Ir.di -> ()
                | _ -> if !ok = Ok () then ok := fail "register %%%s: def-site mismatch" r)
              t.defs
        | Error _ -> ());
        !ok
end

module Dom = struct
type t = {
  func : Ir.func;
  order : string array;  (** reverse postorder, entry first *)
  index : (string, int) Hashtbl.t;  (** label → rpo index *)
  idom : int array;  (** rpo index → rpo index of immediate dominator; entry maps to itself *)
  preds : (string, string list) Hashtbl.t;
  tin : int array;
  tout : int array;
      (** Euler-tour interval of each node in the dominator tree:
          [a] dominates [b] iff [tin.(a) <= tin.(b) && tout.(b) <= tout.(a)],
          making every dominance test O(1) instead of an idom-chain walk. *)
}

let compute ?(index : Func_index.t option) (f : Ir.func) : t =
  (* Number the labels: the entry's first, then every block label in block
     order, then branch targets that name no block.  A label names its last
     block, as a lookup by label finds it; a target naming no block is a
     node without successors or predecessors. *)
  let entry = (Ir.entry f).label in
  let num = Hashtbl.create 16 and names = ref [] and count = ref 0 in
  let number l =
    match Hashtbl.find_opt num l with
    | Some k -> k
    | None ->
        let k = !count in
        Hashtbl.add num l k;
        names := l :: !names;
        incr count;
        k
  in
  ignore (number entry : int);
  List.iter (fun (b : Ir.block) -> ignore (number b.label : int)) f.blocks;
  let n_labels = !count in
  List.iter (fun b -> List.iter (fun s -> ignore (number s : int)) (Ir.successors b)) f.blocks;
  let succs = Array.make !count [] and npreds = Array.make !count [] in
  List.iter
    (fun (b : Ir.block) ->
      let k = number b.label and ss = List.map number (Ir.successors b) in
      succs.(k) <- ss;
      List.iter (fun s -> if s < n_labels then npreds.(s) <- k :: npreds.(s)) ss)
    f.blocks;
  let names = Array.of_list (List.rev !names) in
  let preds =
    match index with
    | Some i -> i.Func_index.preds
    | None ->
        let preds = Hashtbl.create n_labels in
        for k = n_labels - 1 downto 0 do
          Hashtbl.replace preds names.(k) (List.map (fun p -> names.(p)) npreds.(k))
        done;
        preds
  in
  let g = Miniir.Dom.numbered ~succs ~preds:npreds in
  let order = Array.map (fun v -> names.(v)) g.rpo_order in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i l -> Hashtbl.replace index l i) order;
  { func = f; order; index; idom = g.rpo_idom; preds; tin = g.rpo_tin; tout = g.rpo_tout }

(** Is [label] reachable from the entry? *)
let reachable (t : t) (label : string) : bool = Hashtbl.mem t.index label

(** Immediate dominator label; [None] for the entry or unreachable blocks. *)
let idom_of (t : t) (label : string) : string option =
  match Hashtbl.find_opt t.index label with
  | None -> None
  | Some 0 -> None
  | Some i -> if t.idom.(i) >= 0 then Some t.order.(t.idom.(i)) else None

(** Does block [a] dominate block [b]?  Unreachable blocks dominate nothing
    and are dominated by everything (vacuous). *)
let dominates_block (t : t) ~(a : string) ~(b : string) : bool =
  match (Hashtbl.find_opt t.index a, Hashtbl.find_opt t.index b) with
  | Some ia, Some ib -> t.tin.(ia) <= t.tin.(ib) && t.tout.(ib) <= t.tout.(ia)
  | None, _ -> false
  | _, None -> true

let strictly_dominates_block (t : t) ~(a : string) ~(b : string) : bool =
  (not (String.equal a b)) && dominates_block t ~a ~b

(** Dominance frontier per block label. *)
let frontiers (t : t) : (string, string list) Hashtbl.t =
  let df = Hashtbl.create 16 in
  Array.iter (fun l -> Hashtbl.replace df l []) t.order;
  Array.iter
    (fun label ->
      let ps =
        List.filter (reachable t) (Option.value ~default:[] (Hashtbl.find_opt t.preds label))
      in
      if List.length ps >= 2 then
        List.iter
          (fun p ->
            let idom_label = idom_of t label in
            let rec runner r =
              if Some r <> idom_label then begin
                let cur = Option.value ~default:[] (Hashtbl.find_opt df r) in
                if not (List.mem label cur) then Hashtbl.replace df r (label :: cur);
                match idom_of t r with Some up -> runner up | None -> ()
              end
            in
            runner p)
          ps)
    t.order;
  df

(* ------------------------------------------------------------------ *)
(* Instruction-level dominance                                          *)
(* ------------------------------------------------------------------ *)

(** Does the definition at instruction [def_id] dominate the program point
    just before instruction [use_id]?  φ-nodes are treated as defining at
    the very top of their block (they dominate every body instruction of the
    block); an instruction does not dominate itself.  [positions] is a
    {!Func_index.t}'s [positions] table. *)
let instr_dominates (t : t) (positions : (int, string * int) Hashtbl.t) ~(def_id : int)
    ~(use_id : int) : bool =
  match (Hashtbl.find_opt positions def_id, Hashtbl.find_opt positions use_id) with
  | Some (db, di), Some (ub, ui) ->
      if String.equal db ub then di < ui
      else strictly_dominates_block t ~a:db ~b:ub
  | _, _ -> false
end

module Loops = struct
  type loop = Miniir.Loops.loop = {
    header : string;
    body : string list;  (** all blocks of the loop, header included *)
    latches : string list;  (** sources of back edges into the header *)
  }

type t = { loops : loop list; dom : Dom.t }

(** Detect all natural loops.  Back edge: [b → h] with [h] dominating [b].
    Loops sharing a header are merged.  [dom] is recomputed when not
    supplied (the analysis manager passes a cached one, and [index] to
    build it from); the loop bodies follow [dom]'s predecessor lists. *)
let compute ?(index : Func_index.t option) ?(dom : Dom.t option) (f : Ir.func) : t =
  let dom = match dom with Some d -> d | None -> Dom.compute ?index f in
  let back_edges =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter_map
          (fun s ->
            if Dom.reachable dom b.label && Dom.dominates_block dom ~a:s ~b:b.label then
              Some (b.label, s)
            else None)
          (Ir.successors b))
      f.blocks
  in
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (latch, header) ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt by_header header) in
      Hashtbl.replace by_header header (latch :: existing))
    back_edges;
  let loops =
    Hashtbl.fold
      (fun header latches acc ->
        (* Loop body: header plus every block that reaches a latch without
           passing through the header (standard natural-loop construction:
           backward flood from the latches, stopping at the header). *)
        let body = Hashtbl.create 8 in
        Hashtbl.add body header ();
        let rec flood label =
          if not (Hashtbl.mem body label) then begin
            Hashtbl.add body label ();
            List.iter flood (Option.value ~default:[] (Hashtbl.find_opt dom.Dom.preds label))
          end
        in
        List.iter flood latches;
        {
          header;
          body = List.filter (Hashtbl.mem body) (List.map (fun (b : Ir.block) -> b.label) f.blocks);
          latches;
        }
        :: acc)
      by_header []
  in
  (* Sort outermost-first (larger bodies first) for LICM processing. *)
  let loops =
    List.sort (fun a b -> compare (List.length b.body) (List.length a.body)) loops
  in
  { loops; dom }

let in_loop (l : loop) (label : string) = List.mem label l.body
end

(* ------------------------------------------------------------------ *)
(* SSA verifier                                                         *)
(* ------------------------------------------------------------------ *)

module Verifier = struct
  type error = Miniir.Verifier.error = { where : string; what : string }

let verify (f : Ir.func) : (unit, error list) result =
  let index = Func_index.make f in
  let errs = ref [] in
  let err where fmt = Printf.ksprintf (fun what -> errs := { where; what } :: !errs) fmt in
  (* Labels unique.  The index keeps one block per label, so the detailed
     scan runs only when the counts say there is a duplicate. *)
  let labels = index.Func_index.blocks in
  let n_blocks = List.length f.blocks in
  if Hashtbl.length labels <> n_blocks then begin
    let seen = Hashtbl.create n_blocks in
    List.iter
      (fun (b : Ir.block) ->
        if Hashtbl.mem seen b.label then err b.label "duplicate block label"
        else Hashtbl.add seen b.label ())
      f.blocks
  end;
  (* Terminator targets exist *)
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun s -> if not (Hashtbl.mem labels s) then err b.label "branch to unknown block %s" s)
        (Ir.successors b))
    f.blocks;
  (* Instruction ids unique; registers single-assignment.  Same counting:
     the index holds one entry per distinct id and per distinct register. *)
  let n_ids = ref 0 and n_results = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      let count (i : Ir.instr) =
        incr n_ids;
        if i.result <> None then incr n_results
      in
      List.iter count b.phis;
      List.iter count b.body;
      incr n_ids)
    f.blocks;
  let defs_tbl = index.Func_index.defs in
  if
    Hashtbl.length index.Func_index.positions <> !n_ids
    || Hashtbl.length defs_tbl <> !n_results
    || List.exists (Hashtbl.mem defs_tbl) f.params
  then begin
    let ids = Hashtbl.create !n_ids in
    let defs = Hashtbl.create !n_results in
    List.iter (fun p -> Hashtbl.replace defs p `Param) f.params;
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            if Hashtbl.mem ids i.id then err b.label "duplicate instruction id %d" i.id
            else Hashtbl.add ids i.id ();
            match i.result with
            | Some r ->
                if Hashtbl.mem defs r then err b.label "register %%%s defined twice" r
                else Hashtbl.replace defs r `Instr
            | None -> ())
          (Ir.block_instrs b);
        if Hashtbl.mem ids b.term_id then err b.label "duplicate terminator id %d" b.term_id
        else Hashtbl.add ids b.term_id ())
      f.blocks
  end;
  (* φ shape: one incoming per predecessor, and only among phis *)
  List.iter
    (fun (b : Ir.block) ->
      if b.phis <> [] then begin
        let preds = List.sort_uniq compare (Func_index.predecessors index b.label) in
        List.iter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Phi incoming ->
                let labels = List.map fst incoming in
                let inc = List.sort_uniq compare labels in
                if inc <> preds then
                  err b.label "phi #%d incoming {%s} but predecessors {%s}" i.id
                    (String.concat "," inc) (String.concat "," preds);
                if List.compare_lengths inc labels <> 0 then
                  err b.label "phi #%d has more than one incoming from {%s}" i.id
                    (String.concat ","
                       (List.filter
                          (fun l -> List.length (List.filter (String.equal l) labels) > 1)
                          inc))
            | _ -> err b.label "non-phi instruction #%d in phi section" i.id)
          b.phis
      end;
      List.iter
        (fun (i : Ir.instr) ->
          match i.rhs with
          | Ir.Phi _ -> err b.label "phi #%d in body section" i.id
          | _ -> ())
        b.body)
    f.blocks;
  (* Entry: no phis, no predecessors *)
  (match f.blocks with
  | e :: _ ->
      if e.phis <> [] then err e.label "entry block has phi-nodes";
      if Func_index.predecessors index e.label <> [] then err e.label "entry block has predecessors"
  | [] -> err f.fname "function has no blocks");
  (* Dominance of uses (only meaningful if structure is sane so far) *)
  if !errs = [] then begin
    let dom = Dom.compute ~index f in
    let positions = index.Func_index.positions in
    let check_use (b : Ir.block) (use_id : int) (r : Ir.reg) =
      if not (Func_index.is_param index r) then
        match Hashtbl.find_opt defs_tbl r with
        | None -> err b.label "use of undefined register %%%s at #%d" r use_id
        | Some d ->
            let def_id = d.di.id in
            if Dom.reachable dom b.label
               && not (Dom.instr_dominates dom positions ~def_id ~use_id)
            then err b.label "use of %%%s at #%d not dominated by its definition #%d" r use_id def_id
    in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Phi incoming ->
                (* φ incomings must be defined at the end of their pred. *)
                List.iter
                  (fun (pred, v) ->
                    match v with
                    | Ir.Reg r when not (Func_index.is_param index r) -> (
                        match Hashtbl.find_opt defs_tbl r with
                        | None -> err b.label "phi #%d reads undefined %%%s" i.id r
                        | Some d ->
                            if Dom.reachable dom pred
                               && not (Dom.dominates_block dom ~a:d.block ~b:pred)
                            then
                              err b.label "phi #%d incoming %%%s from %s not available there"
                                i.id r pred)
                    | Ir.Reg _ | Ir.Const _ | Ir.Undef -> ())
                  incoming
            | _ -> List.iter (check_use b i.id) (Ir.rhs_uses i.rhs))
          (Ir.block_instrs b);
        List.iter (check_use b b.term_id) (Ir.term_uses b.term))
      f.blocks
  end;
  match !errs with [] -> Ok () | es -> Error (List.rev es)
end
