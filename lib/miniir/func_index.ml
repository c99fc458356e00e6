(** The one numbering of a function's blocks and program points.  Blocks
    are numbered by their position in [f.blocks]; every analysis that asks
    about blocks or points ({!Dom}, {!Loops}, {!Liveness}, mem2reg, source
    variable tracking, the OSR context) reads this numbering instead of
    making its own, and the label queries below serve the passes.

    The block graph is a graph of {e nodes}: node [k] for
    [k < Array.length blocks] is block [k], and a branch target that names
    no block (only an invalid function has one) is a node after them, with
    no successors or predecessors, so dominators see the graph a lookup by
    label sees.  A label names its last block.

    Program points are arrays by instruction id, sized by the largest id
    in the function (not [f.next_id], which a broken function may
    undercut): each φ-node, body instruction and terminator has its block
    number and its position in the block — φ-nodes share position 0, the
    body starts at 1, and the terminator sits after the body.

    Register definitions are not part of the index: {!Ir.def_table} builds
    the name → definition table for the few readers that need one.

    The index is a snapshot: it holds the block and instruction records of
    the function at build time.  Passes that mutate instruction {e contents}
    in place keep a valid index; passes that add/remove blocks or
    instructions, or rewrite terminators, must rebuild (the analysis
    manager's invalidation contract, see [Passes.Analysis_manager]). *)

type t = {
  func : Ir.func;
  blocks : Ir.block array;  (** block number → block *)
  labels : string array;  (** node → label *)
  numbers : int Ir.Names.t;  (** label → node *)
  succs : int list array;  (** node → successor nodes, in {!Ir.successors} order *)
  preds : int list array;  (** node → predecessor blocks, in block order *)
  point_block : int array;  (** instruction/terminator id → block number; [-1] none *)
  point_pos : int array;  (** instruction/terminator id → position in its block *)
}

let make (f : Ir.func) : t =
  let blocks = Array.of_list f.blocks in
  let nb = Array.length blocks in
  let numbers = Ir.Names.create (max 16 nb) in
  Array.iteri (fun k (b : Ir.block) -> Ir.Names.replace numbers b.label k) blocks;
  let targets = ref [] and nodes = ref nb in
  let node l =
    match Ir.Names.find_opt numbers l with
    | Some v -> v
    | None ->
        let v = !nodes in
        Ir.Names.add numbers l v;
        targets := l :: !targets;
        incr nodes;
        v
  in
  let block_succs = Array.map (fun b -> List.map node (Ir.successors b)) blocks in
  let n = !nodes in
  let succs = if n = nb then block_succs else Array.append block_succs (Array.make (n - nb) []) in
  let labels =
    Array.append (Array.map (fun (b : Ir.block) -> b.label) blocks) (Array.of_list (List.rev !targets))
  in
  let preds = Array.make n [] in
  for k = nb - 1 downto 0 do
    List.iter (fun s -> if s < nb then preds.(s) <- k :: preds.(s)) succs.(k)
  done;
  let max_id = ref (-1) in
  let see id = if id > !max_id then max_id := id in
  Array.iter
    (fun (b : Ir.block) ->
      List.iter (fun (i : Ir.instr) -> see i.id) b.phis;
      List.iter (fun (i : Ir.instr) -> see i.id) b.body;
      see b.term_id)
    blocks;
  let point_block = Array.make (!max_id + 1) (-1) and point_pos = Array.make (!max_id + 1) 0 in
  let at k pos id =
    point_block.(id) <- k;
    point_pos.(id) <- pos
  in
  Array.iteri
    (fun k (b : Ir.block) ->
      List.iter (fun (i : Ir.instr) -> at k 0 i.id) b.phis;
      let term_pos =
        List.fold_left
          (fun pos (i : Ir.instr) ->
            at k pos i.id;
            pos + 1)
          1 b.body
      in
      at k term_pos b.term_id)
    blocks;
  { func = f; blocks; labels; numbers; succs; preds; point_block; point_pos }

(* ------------------------------------------------------------------ *)
(* Queries                                                              *)
(* ------------------------------------------------------------------ *)

(** Block number of [label]; [-1] when no block has it. *)
let block_number (t : t) (label : string) : int =
  match Ir.Names.find_opt t.numbers label with
  | Some k when k < Array.length t.blocks -> k
  | Some _ | None -> -1

let find_block (t : t) (label : string) : Ir.block option =
  let k = block_number t label in
  if k < 0 then None else Some t.blocks.(k)

let block_exn (t : t) (label : string) : Ir.block =
  match find_block t label with
  | Some b -> b
  | None ->
      invalid_arg (Printf.sprintf "Func_index.block_exn: no block %S in @%s" label t.func.fname)

(** Is [id] a φ-node, body instruction or terminator of the function? *)
let is_point (t : t) (id : int) : bool =
  id >= 0 && id < Array.length t.point_block && t.point_block.(id) >= 0

(** Block label and position of a point. *)
let position_of (t : t) (id : int) : (string * int) option =
  if is_point t id then Some (t.blocks.(t.point_block.(id)).label, t.point_pos.(id)) else None

(** Block label of an instruction or terminator id. *)
let owner_of (t : t) (id : int) : string option =
  if is_point t id then Some t.blocks.(t.point_block.(id)).label else None

let labels_of (t : t) (nodes : int list) : string list = List.map (fun v -> t.labels.(v)) nodes

(** Predecessor labels, in block order (matches {!Ir.predecessors}). *)
let predecessors (t : t) (label : string) : string list =
  let k = block_number t label in
  if k < 0 then [] else labels_of t t.preds.(k)

let successors (t : t) (label : string) : string list =
  let k = block_number t label in
  if k < 0 then [] else labels_of t t.succs.(k)
