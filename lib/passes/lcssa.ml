open Import

(** LCSSA-form construction: every value defined inside a loop and used
    outside it is routed through a φ-node in the exit block.  These
    single-source φ-nodes always evaluate to the same value — exactly the
    "artificially inserted" φ-nodes the paper's reconstruct identifies and
    rebuilds for free (Section 5.4).  OSR-aware: inserted φ-nodes are
    recorded as [add] actions, and the outside-use rewrites as [replace].

    Cost: one register table per run ({!Func_index.registers}), whose user
    lists the pass keeps current as it edits: an inserted φ becomes a user
    of the register it reads, in its exit block, and a rewritten user stops
    being one.  A loop's outside users of a register are the users in
    blocks outside the loop, fixed when the loop's turn comes, so φ-nodes
    inserted for an enclosing loop count as uses for the loops nested in
    it, and a later exit still records a [replace] for a user an earlier
    exit rewrote.  Registers of the inserted φ-nodes have no id in the
    table, so they never get an LCSSA φ of their own. *)

(* A user of a register: a φ-node, a body instruction or a terminator, in
   block [blk].  A terminator's [ui] stands in for it with its id. *)
type user = {
  blk : int;
  ui : Ir.instr;
  kind : [ `Phi | `Body | `Term ];
  mutable rewritten : bool;
}

let run (m : Code_mapper.t) (f : Ir.func) : bool =
  let changed = ref false in
  (* φ insertion never adds or removes blocks or edges, so one index, its
     dominator tree and its loops serve every query below. *)
  let index = Func_index.make f in
  let loop_info = Loops.compute (Dom.compute index) in
  let dom = loop_info.dom in
  let regs = Func_index.registers index in
  let nb = Array.length index.blocks in
  (* Register id → its users, in block order and, within a block, φ-nodes,
     body, terminator; taken from the table the first time it is asked. *)
  let users = Array.make (Array.length regs.names) None in
  let user p =
    let blk = index.point_block.(p) in
    let ui = regs.instr.(p) in
    if ui == Func_index.no_instr then
      { blk; ui = { Ir.id = p; result = None; rhs = Ir.Alloca 0 }; kind = `Term; rewritten = false }
    else { blk; ui; kind = (if index.point_pos.(p) = 0 then `Phi else `Body); rewritten = false }
  in
  let users_of v =
    match users.(v) with
    | Some us -> us
    | None ->
        let us = List.map user regs.users.(v) in
        users.(v) <- Some us;
        us
  in
  (* A φ-node appended to block [blk] goes after that block's φ users. *)
  let rec insert (u : user) = function
    | w :: rest when w.blk < u.blk || (w.blk = u.blk && w.kind = `Phi) -> w :: insert u rest
    | rest -> u :: rest
  in
  (* Block number → the registers its instructions define. *)
  let defs_in = Array.make nb [] in
  for v = Array.length regs.names - 1 downto 0 do
    let d = regs.def.(v) in
    if d >= 0 then
      let k = index.point_block.(d) in
      defs_in.(k) <- v :: defs_in.(k)
  done;
  List.iter
    (fun (l : Loops.loop) ->
      let in_loop = Array.make nb false in
      List.iter (fun label -> in_loop.(Func_index.block_number index label) <- true) l.body;
      (* Exits with a predecessor in the loop: block, predecessor labels,
         loop predecessors, and whether every predecessor is in the loop. *)
      let exits =
        List.filter_map
          (fun exit_label ->
            let k = Func_index.block_number index exit_label in
            if k < 0 then None
            else
              let preds = index.preds.(k) in
              match List.filter (fun p -> in_loop.(p)) preds with
              | [] -> None
              | loop_preds ->
                  Some (exit_label, k, Func_index.labels_of index preds, loop_preds,
                        List.for_all (fun p -> in_loop.(p)) preds))
          (Loops.exit_targets index l)
      in
      let defined_in_loop =
        List.sort_uniq
          (fun a b -> String.compare regs.names.(a) regs.names.(b))
          (List.concat_map
             (fun label -> defs_in.(Func_index.block_number index label))
             l.body)
      in
      List.iter
        (fun v ->
          let r = regs.names.(v) in
          let instrs, terms =
            List.partition
              (fun u -> u.kind <> `Term)
              (List.filter (fun u -> not in_loop.(u.blk)) (users_of v))
          in
          let outside_users = instrs @ terms in
          if outside_users <> [] then begin
            let def_block = index.point_block.(regs.def.(v)) in
            let rewrote = ref false in
            (* Insert one φ per exit block whose predecessors all lie in the
               loop and are dominated by the definition; each gets one
               incoming per predecessor edge, in predecessor order. *)
            List.iter
              (fun (exit_label, k, preds, loop_preds, all_in_loop) ->
                if
                  List.for_all (fun p -> Dom.dominates dom def_block p) loop_preds
                  && all_in_loop
                then begin
                  let eb = index.blocks.(k) in
                  let phi =
                    {
                      Ir.id = Ir.fresh_id f;
                      result = Some (Ir.fresh_reg ~hint:(r ^ ".lcssa") f);
                      rhs = Ir.Phi (List.map (fun p -> (p, Ir.Reg r)) preds);
                    }
                  in
                  let phi_reg = Option.get phi.result in
                  eb.phis <- eb.phis @ [ phi ];
                  users.(v) <-
                    Some (insert { blk = k; ui = phi; kind = `Phi; rewritten = false } (users_of v));
                  (* The φ alone already mutates the function, even if no
                     outside use ends up rewritten below — report the
                     change, or the pass manager rolls back a pass that
                     misreports. *)
                  changed := true;
                  Code_mapper.add_instr m phi ~block:exit_label;
                  (* Rewrite outside uses dominated by this exit.  A later
                     exit also records a [replace] for every user it
                     dominates, even one an earlier exit already rewrote. *)
                  let subst x = if Ir.equal_value x (Ir.Reg r) then Ir.Reg phi_reg else x in
                  List.iter
                    (fun u ->
                      if Dom.dominates dom k u.blk && u.ui.id <> phi.id then begin
                        (match u.kind with
                        | `Term ->
                            let ub = index.blocks.(u.blk) in
                            ub.term <- Ir.map_term_operands subst ub.term
                        | `Phi | `Body -> u.ui.rhs <- Ir.map_rhs_operands subst u.ui.rhs);
                        u.rewritten <- true;
                        rewrote := true;
                        Code_mapper.replace_use_in m ~inst:u.ui ~old_value:(Ir.Reg r)
                          ~new_value:(Ir.Reg phi_reg);
                        changed := true
                      end)
                    outside_users
                end)
              exits;
            if !rewrote then users.(v) <- Some (List.filter (fun u -> not u.rewritten) (users_of v))
          end)
        defined_in_loop)
    loop_info.loops;
  !changed
