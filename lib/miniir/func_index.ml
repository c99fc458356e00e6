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

    Registers are numbered on demand, not by {!make}: a pass that keys its
    state by register calls {!registers} once per run and reads dense
    arrays by register id (see there).  {!make} stays as cheap as the
    readers of blocks and points need, and {!Ir.def_table} serves the
    few readers that look definitions up by name.

    The index is a snapshot: it holds the block and instruction records of
    the function at build time.  Mutating instruction {e contents} or
    moving instructions between blocks in place keeps its block graph and
    block lookups valid, but not its point arrays; adding or removing
    blocks, or rewriting terminators, needs a new index.  Each pass builds
    its own when its run starts. *)

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

(* ------------------------------------------------------------------ *)
(* Registers                                                            *)
(* ------------------------------------------------------------------ *)

(** The registers of a function, numbered once.  Ids are dense: the
    parameters first, then instruction results in block and instruction
    order (φ-nodes, then body).  A name gets one id, so a register defined
    twice (only an invalid function has one) keeps its first id and, as in
    {!Ir.def_table}, its last definition; a register that nothing defines
    gets none.

    The table is a snapshot of the function when {!registers} ran, like
    the point arrays of the index: a pass that rewrites operands or adds
    instructions keeps what it needs current itself. *)
type registers = {
  names : string array;  (** register id → name *)
  n_params : int;  (** ids below this are the parameters *)
  def : int array;  (** register id → defining point; [-1] for a parameter *)
  users : int list array;
      (** register id → the points that read it, each once, in block order
          and, within a block, φ-nodes, body, terminator (by [term_id]) *)
  result : int array;  (** point → id of the register it defines; [-1] none *)
  instr : Ir.instr array;  (** point → its instruction; {!no_instr} for a terminator or no point *)
  first_operand : int array;
      (** point → where its operands start in [operands]: those of its rhs
          or terminator, in {!Ir.rhs_operands} / {!Ir.term_operands} order *)
  operands : int array;
      (** operand slot → register id; [-1] for a constant, [undef] or a
          register that nothing defines *)
}

(** The placeholder of {!registers}' [instr] array where no instruction is. *)
let no_instr : Ir.instr = { id = -1; result = None; rhs = Ir.Alloca 0 }

(** Number the registers of [t]'s function: one walk that numbers the
    definitions and one that resolves every operand, each with one name
    lookup per definition or operand; users come from the resolved
    operands. *)
let registers (t : t) : registers =
  let npts = Array.length t.point_block in
  let params = t.func.params in
  let cap = List.length params + npts in
  let ids = Ir.Names.create (max 16 cap) in
  let names = Array.make cap "" and def = Array.make cap (-1) in
  let count = ref 0 in
  let number r =
    match Ir.Names.find_opt ids r with
    | Some v -> v
    | None ->
        let v = !count in
        Ir.Names.add ids r v;
        names.(v) <- r;
        incr count;
        v
  in
  List.iter (fun r -> ignore (number r : int)) params;
  let n_params = !count in
  let result = Array.make npts (-1) and instr = Array.make npts no_instr in
  let first_operand = Array.make npts 0 and n_operands = ref 0 in
  let count_operand (_ : Ir.value) = incr n_operands in
  Array.iter
    (fun (b : Ir.block) ->
      let visit (i : Ir.instr) =
        instr.(i.id) <- i;
        first_operand.(i.id) <- !n_operands;
        Ir.iter_rhs_operands count_operand i.rhs;
        match i.result with
        | Some r ->
            let v = number r in
            def.(v) <- i.id;
            result.(i.id) <- v
        | None -> ()
      in
      List.iter visit b.phis;
      List.iter visit b.body;
      first_operand.(b.term_id) <- !n_operands;
      Ir.iter_term_operands count_operand b.term)
    t.blocks;
  (* Operands: the reader of each slot, and the register it reads. *)
  let operands = Array.make !n_operands (-1) and reader = Array.make !n_operands 0 in
  let slot = ref 0 in
  let resolve p (v : Ir.value) =
    (match v with
    | Ir.Reg r -> (
        match Ir.Names.find_opt ids r with Some v -> operands.(!slot) <- v | None -> ())
    | Ir.Const _ | Ir.Undef -> ());
    reader.(!slot) <- p;
    incr slot
  in
  Array.iter
    (fun (b : Ir.block) ->
      let visit (i : Ir.instr) = Ir.iter_rhs_operands (resolve i.id) i.rhs in
      List.iter visit b.phis;
      List.iter visit b.body;
      Ir.iter_term_operands (resolve b.term_id) b.term)
    t.blocks;
  let n = !count in
  let names = Array.sub names 0 n and def = Array.sub def 0 n in
  (* Walking the slots backwards conses each list into block order; a
     point's slots are adjacent, so a repeated read meets itself at the
     head. *)
  let users = Array.make n [] in
  for k = !n_operands - 1 downto 0 do
    let v = operands.(k) and p = reader.(k) in
    if v >= 0 then
      match users.(v) with q :: _ when q = p -> () | us -> users.(v) <- p :: us
  done;
  { names; n_params; def; users; result; instr; first_operand; operands }
