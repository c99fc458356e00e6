open Import

(** Sparse conditional constant propagation (SCCP), after Wegman–Zadeck:
    an optimistic lattice analysis over SSA that simultaneously tracks
    constant values and edge executability, then

    - replaces registers proven constant and deletes their definitions,
    - folds conditional branches whose condition is constant,
    - removes unreachable blocks (the bulk of SCCP's effect on ffmpeg in
      the paper's Table 2), and
    - simplifies φ-nodes left with a single incoming edge.

    OSR-aware: replaces and deletes are recorded in the CodeMapper.

    The analysis runs on arrays over one {!Func_index} and its register
    table, both built when the run starts: the lattice and the users by
    register id, executable blocks by node, and executable edges as the
    list of successor nodes taken out of each block.  Each φ's incoming
    labels are resolved to nodes once.  Constants are materialized in
    definition order (block order, then φ-nodes, then body). *)

type lattice = Top | Const of int | Bottom

let equal_lattice (a : lattice) (b : lattice) : bool =
  match (a, b) with
  | Top, Top | Bottom, Bottom -> true
  | Const x, Const y -> x = y
  | (Top | Const _ | Bottom), _ -> false

let meet (a : lattice) (b : lattice) : lattice =
  match (a, b) with
  | Top, x | x, Top -> x
  | Const x, Const y -> if x = y then Const x else Bottom
  | Bottom, _ | _, Bottom -> Bottom

(* Remove the incomings from [pred] of [b]'s φ-nodes. *)
let drop_incomings (b : Ir.block) ~(pred : string) : unit =
  List.iter
    (fun (i : Ir.instr) ->
      match i.rhs with
      | Ir.Phi incoming ->
          i.rhs <- Ir.Phi (List.filter (fun (l, _) -> not (String.equal l pred)) incoming)
      | _ -> ())
    b.phis

let run (m : Code_mapper.t) (f : Ir.func) : bool =
  let changed = ref false in
  (* The analysis and the constant rewrite (step 1 below) leave the block
     list alone; blocks go only in step 3, after the last lookup. *)
  let index = Func_index.make f in
  let regs = Func_index.registers index in
  let blocks = index.blocks in
  let nb = Array.length blocks in
  let state = Array.make (Array.length regs.names) Top in
  let get_state v = if v < regs.n_params then Bottom else state.(v) in
  (* Operand [k] of point [p], whose value is [v].  A register that
     nothing defines stays [Top]. *)
  let value_lattice p k (v : Ir.value) =
    match v with
    | Ir.Const n -> Const n
    | Ir.Reg _ ->
        let v = regs.operands.(regs.first_operand.(p) + k) in
        if v < 0 then Top else get_state v
    | Ir.Undef -> Bottom
  in
  (* Node of each φ incoming's label, by operand slot; [-1] when the label
     names no node. *)
  let incoming_node = Array.make (Array.length regs.operands) (-1) in
  Array.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.rhs with
          | Ir.Phi incoming ->
              List.iteri
                (fun k (l, _) ->
                  match Ir.Names.find_opt index.numbers l with
                  | Some v -> incoming_node.(regs.first_operand.(i.id) + k) <- v
                  | None -> ())
                incoming
          | _ -> ())
        b.phis)
    blocks;
  let exec = Array.make (Array.length index.labels) false in
  (* Block node → the successor nodes whose edge is executable. *)
  let exec_succs = Array.make nb [] in
  let edge_exec src dst = src >= 0 && src < nb && List.mem dst exec_succs.(src) in
  let block_work = Queue.create () in
  let instr_work = Queue.create () in
  let mark_edge src dst =
    if not (List.mem dst exec_succs.(src)) then begin
      exec_succs.(src) <- dst :: exec_succs.(src);
      (* Re-evaluate φ-nodes of dst (new incoming became executable). *)
      if dst < nb then List.iter (fun (i : Ir.instr) -> Queue.push i.id instr_work) blocks.(dst).phis;
      if not exec.(dst) then begin
        exec.(dst) <- true;
        Queue.push dst block_work
      end
    end
  in
  (* Users of changed registers: instruction and terminator points. *)
  let instr_queue = Queue.create () in
  let set_state (i : Ir.instr) (l : lattice) =
    let v = regs.result.(i.id) in
    if v >= 0 then begin
      let old = get_state v in
      let next = if old = Top then l else meet old l in
      if not (equal_lattice next old) then begin
        state.(v) <- next;
        List.iter (fun p -> Queue.push p instr_queue) regs.users.(v)
      end
    end
  in
  let eval_instr (i : Ir.instr) (block : int) =
    let p = i.id in
    match i.rhs with
    | Ir.Phi incoming ->
        let slot = regs.first_operand.(p) in
        let _, l =
          List.fold_left
            (fun (k, acc) (_, v) ->
              (k + 1, if edge_exec incoming_node.(slot + k) block then meet acc (value_lattice p k v) else acc))
            (0, Top) incoming
        in
        set_state i l
    | Ir.Binop (op, a, b) -> (
        match (value_lattice p 0 a, value_lattice p 1 b) with
        | Const x, Const y -> (
            match Fold.eval_binop op x y with
            | Some n -> set_state i (Const n)
            | None -> set_state i Bottom)
        | Bottom, _ | _, Bottom -> set_state i Bottom
        | Top, _ | _, Top -> ())
    | Ir.Icmp (op, a, b) -> (
        match (value_lattice p 0 a, value_lattice p 1 b) with
        | Const x, Const y -> set_state i (Const (Fold.eval_icmp op x y))
        | Bottom, _ | _, Bottom -> set_state i Bottom
        | Top, _ | _, Top -> ())
    | Ir.Select (c, t, e) -> (
        match value_lattice p 0 c with
        | Const k -> set_state i (if k <> 0 then value_lattice p 1 t else value_lattice p 2 e)
        | Bottom -> set_state i (meet (value_lattice p 1 t) (value_lattice p 2 e))
        | Top -> ())
    | Ir.Call (name, args) when Ir.is_pure_call name -> (
        let arg_lats = List.mapi (value_lattice p) args in
        if List.exists (fun l -> l = Bottom) arg_lats then set_state i Bottom
        else if List.for_all (function Const _ -> true | _ -> false) arg_lats then
          let consts = List.map (function Const n -> n | _ -> 0) arg_lats in
          match Fold.eval_intrinsic name consts with
          | Some n -> set_state i (Const n)
          | None -> set_state i Bottom
        else ())
    | Ir.Load _ | Ir.Call _ | Ir.Alloca _ -> set_state i Bottom
    | Ir.Store _ -> ()
  in
  let eval_term k =
    let b = blocks.(k) in
    match (b.term, index.succs.(k)) with
    | Ir.Br _, [ s ] -> mark_edge k s
    | Ir.Cbr (c, _, _), succs -> (
        (* [Ir.successors] lists a two-way branch to one label once. *)
        let t, e = match succs with [ t; e ] -> (t, e) | t :: _ -> (t, t) | [] -> (-1, -1) in
        match value_lattice b.term_id 0 c with
        | Const n -> mark_edge k (if n <> 0 then t else e)
        | Bottom ->
            mark_edge k t;
            mark_edge k e
        | Top -> ())
    | (Ir.Br _ | Ir.Ret _ | Ir.Unreachable), _ -> ()
  in
  (* Seed with the entry block. *)
  exec.(0) <- true;
  Queue.push 0 block_work;
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    while not (Queue.is_empty block_work) do
      continue_ := true;
      let k = Queue.pop block_work in
      let b = blocks.(k) in
      List.iter (fun i -> eval_instr i k) b.phis;
      List.iter (fun i -> eval_instr i k) b.body;
      eval_term k
    done;
    while not (Queue.is_empty instr_queue) do
      continue_ := true;
      let p = Queue.pop instr_queue in
      let k = index.point_block.(p) in
      if exec.(k) then
        let i = regs.instr.(p) in
        if i == Func_index.no_instr then eval_term k else eval_instr i k
    done;
    (* φ re-evaluations queued by mark_edge land in instr_work; drain. *)
    while not (Queue.is_empty instr_work) do
      continue_ := true;
      let p = Queue.pop instr_work in
      let k = index.point_block.(p) in
      if exec.(k) then eval_instr regs.instr.(p) k
    done
  done;
  (* --- Rewrite phase ------------------------------------------------- *)
  (* 1. Materialize constants, in definition order: block order, then
     φ-nodes, then body. *)
  Array.iter
    (fun (b : Ir.block) ->
      let materialize (i : Ir.instr) =
        let v = regs.result.(i.id) in
        if v >= 0 && regs.def.(v) = i.id && not (Ir.has_side_effects i.rhs) then
          match state.(v) with
          | Const n ->
              Code_mapper.replace_all_uses m f ~old_value:(Ir.Reg regs.names.(v))
                ~new_value:(Ir.Const n);
              Code_mapper.delete_instr m i;
              b.phis <- List.filter (fun (j : Ir.instr) -> j.id <> i.id) b.phis;
              b.body <- List.filter (fun (j : Ir.instr) -> j.id <> i.id) b.body;
              changed := true
          | Top | Bottom -> ()
      in
      List.iter materialize b.phis;
      List.iter materialize b.body)
    blocks;
  (* 2. Fold conditional branches with constant or one-sided conditions.
     The folded edge's φ incomings go after step 3. *)
  let folded = ref [] in
  let fold (b : Ir.block) ~keep ~drop =
    b.term <- Ir.Br keep;
    if not (String.equal keep drop) then folded := (b.label, drop) :: !folded;
    changed := true
  in
  Array.iteri
    (fun k (b : Ir.block) ->
      match (b.term, index.succs.(k)) with
      | Ir.Cbr (Ir.Const c, t, e), _ ->
          if c <> 0 then fold b ~keep:t ~drop:e else fold b ~keep:e ~drop:t
      | Ir.Cbr (_, t, e), [ tn; en ] when exec.(k) -> (
          match (List.mem tn exec_succs.(k), List.mem en exec_succs.(k)) with
          | true, false -> fold b ~keep:t ~drop:e
          | false, true -> fold b ~keep:e ~drop:t
          | _, _ -> ())
      | _ -> ())
    blocks;
  (* 3. Remove unreachable blocks. *)
  let removed k = k >= 0 && k < nb && not exec.(k) in
  if Array.exists not (Array.sub exec 0 nb) then begin
    changed := true;
    Array.iteri
      (fun k (b : Ir.block) ->
        if removed k then List.iter (Code_mapper.delete_instr m) (Ir.block_instrs b))
      blocks;
    f.blocks <- List.filteri (fun k _ -> exec.(k)) f.blocks;
    (* Drop φ incomings from removed predecessors. *)
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Phi incoming ->
                let slot = regs.first_operand.(i.id) in
                i.rhs <- Ir.Phi (List.filteri (fun k _ -> not (removed incoming_node.(slot + k))) incoming)
            | _ -> ())
          b.phis)
      f.blocks
  end;
  (* Drop φ incomings along the folded edges: their source block no longer
     branches to the target, which may still be reachable (a bottom-tested
     loop's header after its back edge folds away). *)
  List.iter
    (fun (pred, target) ->
      match Func_index.find_block index target with
      | Some tb -> drop_incomings tb ~pred
      | None -> ())
    !folded;
  (* 4. Simplify φ-nodes left with a single incoming. *)
  List.iter
    (fun (b : Ir.block) ->
      b.phis <-
        List.filter
          (fun (i : Ir.instr) ->
            match (i.rhs, i.result) with
            | Ir.Phi [ (_, v) ], Some r ->
                Code_mapper.replace_all_uses m f ~old_value:(Ir.Reg r) ~new_value:v;
                Code_mapper.delete_instr m i;
                changed := true;
                false
            | _ -> true)
          b.phis)
    f.blocks;
  !changed
