open Import

(** mem2reg: promote alloca slots that are only loaded and stored into SSA
    registers, inserting φ-nodes at iterated dominance frontiers and
    renaming along the dominator tree.

    This is the front-end pass of the paper's pipeline — [fbase] is
    "clang -O0 followed by mem2reg" (Section 6.1) — so it runs {e before}
    OSR instrumentation and takes no CodeMapper.  Continuation generation
    runs it again to re-promote the slots it demoted.

    Tables.  The slots are found first, from the allocas, and numbered;
    every later question about an operand is a lookup in that small table,
    and per slot or per block the state lives in arrays: the blocks storing
    to each slot, the φ-nodes placed in each block (appended to the block
    once, after placement), and during renaming one current value per slot
    with an undo log that restores the values on the way back up the
    dominator tree.  A second table, by name, holds what the last walk
    asks about a register: the load results renaming replaced (with their
    values) and the φ-nodes (numbered for pruning).  Only instructions
    and terminators that read a replaced load are rebuilt.  The output —
    φ ids, names and order, replacements and pruning — is that of the
    name-keyed version kept in the test suite, which the front gate
    compares it with. *)

(* Dominator-tree children by node, from the CHK idom array. *)
let dom_children (dom : Dom.t) : int list array =
  let children = Array.make (Array.length dom.index.labels) [] in
  Array.iteri
    (fun i v ->
      if i > 0 && dom.idom.(i) >= 0 then begin
        let parent = dom.order.(dom.idom.(i)) in
        children.(parent) <- v :: children.(parent)
      end)
    dom.order;
  children

(* What the final walk asks about a register name. *)
type reg_info =
  | Replaced of Ir.value  (** a load result renaming removed, and its value *)
  | Phi_result of int  (** the result of φ-node number [k] *)

(* The alloca slots of [f] whose address never escapes: every size-1
   alloca with a result, minus those whose register appears anywhere but
   as the address of a load or store.  Returns the slot names in
   instruction order, their numbering, and for each slot the numbers of
   the blocks storing to it (positions in [f.blocks], the {!Func_index}
   numbering), ascending. *)
let find_slots (f : Ir.func) : Ir.reg array * int Ir.Names.t * int list array =
  let cands = Ir.Names.create 16 and names = ref [] and n = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match (i.rhs, i.result) with
          | Ir.Alloca 1, Some r ->
              Ir.Names.replace cands r !n;
              names := r :: !names;
              incr n
          | _ -> ())
        b.body)
    f.blocks;
  let n = !n in
  if n = 0 then ([||], cands, [||])
  else begin
    let escaped = Array.make n false and stored = Array.make n [] in
    let index r = match Ir.Names.find_opt cands r with Some s -> s | None -> -1 in
    let mark v =
      match v with
      | Ir.Reg r ->
          let s = index r in
          if s >= 0 then escaped.(s) <- true
      | Ir.Const _ | Ir.Undef -> ()
    in
    let escape (i : Ir.instr) =
      match i.rhs with
      | Ir.Load (Ir.Reg _) -> ()
      | Ir.Store (v, Ir.Reg _) -> mark v
      | rhs -> Ir.iter_rhs_operands mark rhs
    in
    List.iteri
      (fun k (b : Ir.block) ->
        List.iter escape b.phis;
        List.iter
          (fun (i : Ir.instr) ->
            escape i;
            match i.rhs with
            | Ir.Store (_, Ir.Reg a) -> (
                let s = index a in
                if s >= 0 then
                  match stored.(s) with k' :: _ when k' = k -> () | ks -> stored.(s) <- k :: ks)
            | _ -> ())
          b.body;
        Ir.iter_term_operands mark b.term)
      f.blocks;
    (* Renumber the slots that did not escape, keeping their order. *)
    let slots = Ir.Names.create 16 and kept = ref [] and defs = ref [] and m = ref 0 in
    List.iteri
      (fun s r ->
        if not escaped.(s) then begin
          Ir.Names.replace slots r !m;
          kept := r :: !kept;
          defs := List.rev stored.(s) :: !defs;
          incr m
        end)
      (List.rev !names);
    (Array.of_list (List.rev !kept), slots, Array.of_list (List.rev !defs))
  end

(** Promote [f]'s slots; false when it has none.  [index], when given, must
    be [f]'s current index. *)
let run ?(index : Func_index.t option) (f : Ir.func) : bool =
  let slot_names, slots, def_blocks = find_slots f in
  let nslots = Array.length slot_names in
  if nslots = 0 then false
  else begin
    let slot_of r = match Ir.Names.find_opt slots r with Some s -> s | None -> -1 in
    let index = match index with Some index -> index | None -> Func_index.make f in
    let blocks = index.blocks in
    let nb = Array.length blocks in
    let dom = Dom.compute index in
    let df = Dom.frontiers dom in
    let children = dom_children dom in
    (* φ placement: iterated dominance frontier.  [placed.(d)] and
       [enqueued.(d)] hold the number of the last slot that placed a φ in
       block [d] or queued it; [new_phis.(d)] holds the φs placed in [d]
       with their slots, newest first. *)
    let new_phis = Array.make nb [] in
    let placed = Array.make nb (-1) in
    let enqueued = Array.make nb (-1) in
    let worklist = Queue.create () in
    for n = 0 to nslots - 1 do
      List.iter (fun b -> Queue.push b worklist) def_blocks.(n);
      while not (Queue.is_empty worklist) do
        let b = Queue.pop worklist in
        List.iter
          (fun d ->
            if placed.(d) <> n then begin
              placed.(d) <- n;
              let phi =
                {
                  Ir.id = Ir.fresh_id f;
                  result = Some (Ir.fresh_reg ~hint:(slot_names.(n) ^ ".phi") f);
                  rhs = Ir.Phi (List.map (fun p -> (p, Ir.Undef)) (Func_index.labels_of index index.preds.(d)));
                }
              in
              new_phis.(d) <- (phi, n) :: new_phis.(d);
              if enqueued.(d) <> n then begin
                enqueued.(d) <- n;
                Queue.push d worklist
              end
            end)
          df.(b)
      done
    done;
    Array.iteri
      (fun d placed_rev ->
        if placed_rev <> [] then begin
          let placed = List.rev placed_rev in
          new_phis.(d) <- placed;
          blocks.(d).phis <- blocks.(d).phis @ List.map fst placed
        end)
      new_phis;
    (* Renaming walk over the dominator tree.  [cur.(s)] is slot [s]'s
       current value; every assignment logs the value it overwrites, and a
       block's assignments are undone when its subtree is done. *)
    let info : reg_info Ir.Names.t = Ir.Names.create 64 in
    let resolve v =
      let rec go v d =
        if d = 0 then v
        else
          match v with
          | Ir.Reg r -> (
              match Ir.Names.find_opt info r with Some (Replaced v') -> go v' (d - 1) | _ -> v)
          | _ -> v
      in
      go v 64
    in
    let cur = Array.make nslots Ir.Undef in
    let undo_slot = ref [] in
    let assign s v =
      undo_slot := (s, cur.(s)) :: !undo_slot;
      cur.(s) <- v
    in
    let slot_op (i : Ir.instr) =
      match i.rhs with
      | Ir.Load (Ir.Reg a) | Ir.Store (_, Ir.Reg a) -> slot_of a >= 0
      | Ir.Alloca _ -> ( match i.result with Some r -> slot_of r >= 0 | None -> false)
      | _ -> false
    in
    let rec walk (k : int) : unit =
      let blk = blocks.(k) in
      let mark = !undo_slot in
      (* φ-nodes placed in this block define new current values. *)
      List.iter
        (fun ((i : Ir.instr), s) -> match i.result with Some r -> assign s (Ir.Reg r) | None -> ())
        new_phis.(k);
      (* Body: consume loads/stores of promotable slots. *)
      if List.exists slot_op blk.body then
        blk.body <-
          List.filter
            (fun (i : Ir.instr) ->
              match i.rhs with
              | Ir.Load (Ir.Reg a) ->
                  let s = slot_of a in
                  s < 0
                  ||
                  (let v = resolve cur.(s) in
                   (match i.result with Some r -> Ir.Names.replace info r (Replaced v) | None -> ());
                   false)
              | Ir.Store (v, Ir.Reg a) ->
                  let s = slot_of a in
                  s < 0
                  ||
                  (assign s (resolve v);
                   false)
              | Ir.Alloca _ -> not (slot_op i)
              | _ -> true)
            blk.body;
      (* Fill φ incomings of successors from this edge. *)
      List.iter
        (fun s ->
          List.iter
            (fun ((phi : Ir.instr), slot) ->
              let v = resolve cur.(slot) in
              match phi.rhs with
              | Ir.Phi incoming ->
                  phi.rhs <-
                    Ir.Phi
                      (List.map
                         (fun (l, old) -> if String.equal l blk.label then (l, v) else (l, old))
                         incoming)
              | _ -> ())
            new_phis.(s))
        index.succs.(k);
      List.iter walk children.(k);
      while !undo_slot != mark do
        match !undo_slot with
        | (s, v) :: rest ->
            cur.(s) <- v;
            undo_slot := rest
        | [] -> assert false
      done
    in
    walk 0;
    (* Number every φ of the function, then rewrite the operands that read
       a replaced load and count the uses of every φ. *)
    let phis = ref [] and nphis = ref 0 in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            match (i.rhs, i.result) with
            | Ir.Phi _, Some r ->
                Ir.Names.replace info r (Phi_result !nphis);
                phis := i :: !phis;
                incr nphis
            | _ -> ())
          b.phis)
      f.blocks;
    let phis = Array.of_list (List.rev !phis) in
    let uses = Array.make !nphis 0 in
    let phi_number v =
      match v with
      | Ir.Reg r -> ( match Ir.Names.find_opt info r with Some (Phi_result k) -> k | _ -> -1)
      | Ir.Const _ | Ir.Undef -> -1
    in
    (* One lookup per operand: a φ read counts a use, a replaced load
       marks its reader for rebuilding and counts the use of its value. *)
    let rebuild = ref false in
    let visit v =
      match v with
      | Ir.Reg r -> (
          match Ir.Names.find_opt info r with
          | Some (Phi_result k) -> uses.(k) <- uses.(k) + 1
          | Some (Replaced _) ->
              rebuild := true;
              let k = phi_number (resolve v) in
              if k >= 0 then uses.(k) <- uses.(k) + 1
          | None -> ())
      | Ir.Const _ | Ir.Undef -> ()
    in
    let rewrite (i : Ir.instr) =
      rebuild := false;
      Ir.iter_rhs_operands visit i.rhs;
      if !rebuild then i.rhs <- Ir.map_rhs_operands resolve i.rhs
    in
    List.iter
      (fun (b : Ir.block) ->
        List.iter rewrite b.phis;
        List.iter rewrite b.body;
        rebuild := false;
        Ir.iter_term_operands visit b.term;
        if !rebuild then b.term <- Ir.map_term_operands resolve b.term)
      f.blocks;
    (* Prune unused φ-nodes ("pruned SSA"): the frontier placement inserts
       φs whether or not a read follows.  Dropping a φ nobody uses releases
       its operands, which may leave other φs unused; the worklist reaches
       the same fixpoint as rescanning until nothing changes, since a φ's
       removal never depends on the order. *)
    let dead = Array.make !nphis false in
    let work = Queue.create () in
    Array.iteri (fun k n -> if n = 0 then Queue.push k work) uses;
    let any_dead = not (Queue.is_empty work) in
    while not (Queue.is_empty work) do
      let k = Queue.pop work in
      if not dead.(k) then begin
        dead.(k) <- true;
        Ir.iter_rhs_operands
          (fun v ->
            let u = phi_number v in
            if u >= 0 then begin
              uses.(u) <- uses.(u) - 1;
              if uses.(u) = 0 then Queue.push u work
            end)
          phis.(k).rhs
      end
    done;
    if any_dead then begin
      let is_dead (i : Ir.instr) =
        match i.rhs with
        | Ir.Phi _ -> (
            match i.result with Some r -> let k = phi_number (Ir.Reg r) in k >= 0 && dead.(k) | None -> false)
        | _ -> false
      in
      List.iter
        (fun (b : Ir.block) ->
          if List.exists is_dead b.phis then b.phis <- List.filter (fun i -> not (is_dead i)) b.phis)
        f.blocks
    end;
    true
  end
