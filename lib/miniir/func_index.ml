(** An immutable per-function index over a MiniIR function: O(1) lookup of
    blocks by label, the block and position of every instruction id,
    predecessors/successors, parameter membership and definition sites.
    Built in one pass over the function; every consumer that used to rescan
    [f.blocks] ({!Ir.find_block}, {!Ir.predecessors}, per-point block
    rescans) goes through an index instead, which is what makes the
    per-point OSR feasibility sweep near-linear.

    The index is a snapshot: it holds the block and instruction records of
    the function at build time.  Passes that mutate instruction {e contents}
    in place keep a valid index; passes that add/remove blocks or
    instructions, or rewrite terminators, must rebuild (the analysis
    manager's invalidation contract, see [Passes.Analysis_manager]). *)

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
