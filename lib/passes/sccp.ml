open Import

(** Sparse conditional constant propagation (SCCP), after Wegman–Zadeck:
    an optimistic lattice analysis over SSA that simultaneously tracks
    constant values and edge executability, then

    - replaces registers proven constant and deletes their definitions,
    - folds conditional branches whose condition is constant,
    - removes unreachable blocks (the bulk of SCCP's effect on ffmpeg in
      the paper's Table 2), and
    - simplifies φ-nodes left with a single incoming edge.

    OSR-aware: replaces and deletes are recorded in the CodeMapper. *)

type lattice = Top | Const of int | Bottom

let meet (a : lattice) (b : lattice) : lattice =
  match (a, b) with
  | Top, x | x, Top -> x
  | Const x, Const y -> if x = y then Const x else Bottom
  | Bottom, _ | _, Bottom -> Bottom

let run (m : Code_mapper.t) (f : Ir.func) : bool =
  let changed = ref false in
  let state : (Ir.reg, lattice) Hashtbl.t = Hashtbl.create 64 in
  let get_state r =
    if List.mem r f.params then Bottom
    else Option.value ~default:Top (Hashtbl.find_opt state r)
  in
  let value_lattice = function
    | Ir.Const n -> Const n
    | Ir.Reg r -> get_state r
    | Ir.Undef -> Bottom
  in
  let exec_blocks : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let exec_edges : (string * string, unit) Hashtbl.t = Hashtbl.create 16 in
  let block_work = Queue.create () in
  let instr_work = Queue.create () in
  let def_tbl = Ir.def_table f in
  (* The analysis and the constant rewrite (step 1 below) leave the block
     list alone; blocks go only in step 3, after the last lookup. *)
  let index = Func_index.make f in
  (* users table: reg → instructions reading it (plus terminator owners) *)
  let users : (Ir.reg, [ `I of Ir.instr | `T of Ir.block ] list) Hashtbl.t = Hashtbl.create 64 in
  let add_user r u =
    Hashtbl.replace users r (u :: Option.value ~default:[] (Hashtbl.find_opt users r))
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) -> List.iter (fun r -> add_user r (`I i)) (Ir.rhs_uses i.rhs))
        (Ir.block_instrs b);
      List.iter (fun r -> add_user r (`T b)) (Ir.term_uses b.term))
    f.blocks;
  let mark_edge src dst =
    if not (Hashtbl.mem exec_edges (src, dst)) then begin
      Hashtbl.add exec_edges (src, dst) ();
      (* Re-evaluate φ-nodes of dst (new incoming became executable). *)
      (match Func_index.find_block index dst with
      | Some db -> List.iter (fun i -> Queue.push i instr_work) db.phis
      | None -> ());
      if not (Hashtbl.mem exec_blocks dst) then begin
        Hashtbl.add exec_blocks dst ();
        Queue.push dst block_work
      end
    end
  in
  (* Uniform work-item queue wrapping instructions and terminators. *)
  let instr_queue : [ `Instr of Ir.instr * string | `Term of Ir.block ] Queue.t = Queue.create () in
  let push_users r =
    List.iter
      (fun u ->
        match u with
        | `I j -> (
            match Func_index.owner_of index j.Ir.id with
            | Some bl -> Queue.push (`Instr (j, bl)) instr_queue
            | None -> ())
        | `T b -> Queue.push (`Term b) instr_queue)
      (Option.value ~default:[] (Hashtbl.find_opt users r))
  in
  let set_state (i : Ir.instr) (l : lattice) =
    match i.result with
    | None -> ()
    | Some r ->
        let old = get_state r in
        let next = if old = Top then l else meet old l in
        if next <> old then begin
          Hashtbl.replace state r next;
          push_users r
        end
  in
  let eval_instr (i : Ir.instr) (block : string) =
    match i.rhs with
    | Ir.Phi incoming ->
        let l =
          List.fold_left
            (fun acc (pred, v) ->
              if Hashtbl.mem exec_edges (pred, block) then meet acc (value_lattice v) else acc)
            Top incoming
        in
        set_state i l
    | Ir.Binop (op, a, b) -> (
        match (value_lattice a, value_lattice b) with
        | Const x, Const y -> (
            match Fold.eval_binop op x y with
            | Some n -> set_state i (Const n)
            | None -> set_state i Bottom)
        | Bottom, _ | _, Bottom -> set_state i Bottom
        | Top, _ | _, Top -> ())
    | Ir.Icmp (op, a, b) -> (
        match (value_lattice a, value_lattice b) with
        | Const x, Const y -> set_state i (Const (Fold.eval_icmp op x y))
        | Bottom, _ | _, Bottom -> set_state i Bottom
        | Top, _ | _, Top -> ())
    | Ir.Select (c, t, e) -> (
        match value_lattice c with
        | Const k -> set_state i (value_lattice (if k <> 0 then t else e))
        | Bottom -> set_state i (meet (value_lattice t) (value_lattice e))
        | Top -> ())
    | Ir.Call (name, args) when Ir.is_pure_call name -> (
        let arg_lats = List.map value_lattice args in
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
  let eval_term (b : Ir.block) =
    match b.term with
    | Ir.Br l -> mark_edge b.label l
    | Ir.Cbr (c, t, e) -> (
        match value_lattice c with
        | Const k -> mark_edge b.label (if k <> 0 then t else e)
        | Bottom ->
            mark_edge b.label t;
            mark_edge b.label e
        | Top -> ())
    | Ir.Ret _ | Ir.Unreachable -> ()
  in
  (* Seed with the entry block. *)
  let entry_label = (Ir.entry f).label in
  Hashtbl.add exec_blocks entry_label ();
  Queue.push entry_label block_work;
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    while not (Queue.is_empty block_work) do
      continue_ := true;
      let label = Queue.pop block_work in
      let b = Func_index.block_exn index label in
      List.iter (fun i -> eval_instr i label) (Ir.block_instrs b);
      eval_term b
    done;
    while not (Queue.is_empty instr_queue) do
      continue_ := true;
      match Queue.pop instr_queue with
      | `Instr (i, bl) -> if Hashtbl.mem exec_blocks bl then eval_instr i bl
      | `Term b -> if Hashtbl.mem exec_blocks b.Ir.label then eval_term b
    done;
    (* φ re-evaluations queued by mark_edge land in instr_work; drain. *)
    while not (Queue.is_empty instr_work) do
      continue_ := true;
      let i = Queue.pop instr_work in
      match Func_index.owner_of index i.Ir.id with
      | Some bl -> if Hashtbl.mem exec_blocks bl then eval_instr i bl
      | None -> ()
    done
  done;
  (* --- Rewrite phase ------------------------------------------------- *)
  (* 1. Materialize constants. *)
  Hashtbl.iter
    (fun r l ->
      match l with
      | Const n -> (
          match Ir.Names.find_opt def_tbl r with
          | Some (d : Ir.def_site) when not (Ir.has_side_effects d.di.rhs) ->
              Code_mapper.replace_all_uses m f ~old_value:(Ir.Reg r) ~new_value:(Ir.Const n);
              Code_mapper.delete_instr m d.di;
              let blk = Func_index.block_exn index d.block in
              blk.phis <- List.filter (fun (j : Ir.instr) -> j.id <> d.di.id) blk.phis;
              blk.body <- List.filter (fun (j : Ir.instr) -> j.id <> d.di.id) blk.body;
              changed := true
          | _ -> ())
      | Top | Bottom -> ())
    state;
  (* 2. Fold conditional branches with constant or one-sided conditions. *)
  List.iter
    (fun (b : Ir.block) ->
      match b.term with
      | Ir.Cbr (Ir.Const k, t, e) ->
          b.term <- Ir.Br (if k <> 0 then t else e);
          changed := true
      | Ir.Cbr (_, t, e) when Hashtbl.mem exec_blocks b.label -> (
          let t_exec = Hashtbl.mem exec_edges (b.label, t) in
          let e_exec = Hashtbl.mem exec_edges (b.label, e) in
          match (t_exec, e_exec) with
          | true, false ->
              b.term <- Ir.Br t;
              changed := true
          | false, true ->
              b.term <- Ir.Br e;
              changed := true
          | _, _ -> ())
      | _ -> ())
    f.blocks;
  (* 3. Remove unreachable blocks. *)
  let removed =
    List.filter (fun (b : Ir.block) -> not (Hashtbl.mem exec_blocks b.label)) f.blocks
  in
  if removed <> [] then begin
    changed := true;
    List.iter
      (fun (b : Ir.block) ->
        List.iter (Code_mapper.delete_instr m) (Ir.block_instrs b))
      removed;
    let removed_labels = List.map (fun (b : Ir.block) -> b.label) removed in
    f.blocks <- List.filter (fun (b : Ir.block) -> not (List.mem b.label removed_labels)) f.blocks;
    (* Drop φ incomings from removed predecessors. *)
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            match i.rhs with
            | Ir.Phi incoming ->
                i.rhs <- Ir.Phi (List.filter (fun (l, _) -> not (List.mem l removed_labels)) incoming)
            | _ -> ())
          b.phis)
      f.blocks
  end;
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
