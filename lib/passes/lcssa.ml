open Import

(** LCSSA-form construction: every value defined inside a loop and used
    outside it is routed through a φ-node in the exit block.  These
    single-source φ-nodes always evaluate to the same value — exactly the
    "artificially inserted" φ-nodes the paper's reconstruct identifies and
    rebuilds for free (Section 5.4).  OSR-aware: inserted φ-nodes are
    recorded as [add] actions, and the outside-use rewrites as [replace].

    Cost: one scan of the function per loop.  Each loop gets a table of its
    outside uses (register → users), built from the function as it stands
    when the loop's turn comes, so φ-nodes inserted for an enclosing loop
    count as uses for the loops nested in it. *)

(* An outside use of a register: an instruction (φ or body) or a block's
   terminator. *)
type user = Instr of Ir.block * Ir.instr | Term of Ir.block

(* Register → its users in the blocks outside a loop: instruction users in
   block and instruction order, then terminator users in block order; an
   instruction reading a register twice is listed once. *)
let outside_uses (f : Ir.func) ~(in_loop : string -> bool) : (Ir.reg, user list) Hashtbl.t =
  let uses = Hashtbl.create 64 in
  let add r u = Hashtbl.replace uses r (u :: Option.value ~default:[] (Hashtbl.find_opt uses r)) in
  let outside = List.filter (fun (b : Ir.block) -> not (in_loop b.label)) f.blocks in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          List.iter
            (fun r -> add r (Instr (b, i)))
            (List.sort_uniq String.compare (Ir.rhs_uses i.rhs)))
        (Ir.block_instrs b))
    outside;
  List.iter
    (fun (b : Ir.block) ->
      List.iter (fun r -> add r (Term b)) (List.sort_uniq String.compare (Ir.term_uses b.term)))
    outside;
  Hashtbl.filter_map_inplace (fun _ us -> Some (List.rev us)) uses;
  uses

let run (m : Code_mapper.t) (f : Ir.func) : bool =
  let changed = ref false in
  (* φ insertion never adds or removes blocks or edges, so one index, its
     dominator tree and its loops serve every query below.  The def table
     is a snapshot: registers of the φs inserted here are not in it, so
     they never get an LCSSA φ of their own. *)
  let index = Func_index.make f in
  let loop_info = Loops.compute (Dom.compute index) in
  let def_tbl = Ir.def_table f in
  List.iter
    (fun (l : Loops.loop) ->
      let body = Hashtbl.create 16 in
      List.iter (fun label -> Hashtbl.replace body label ()) l.body;
      let in_loop label = Hashtbl.mem body label in
      let exits = Loops.exit_targets index l in
      (* Values defined in the loop. *)
      let defined_in_loop =
        List.concat_map
          (fun label ->
            match Func_index.find_block index label with
            | Some b ->
                List.filter_map (fun (i : Ir.instr) -> i.result) (Ir.block_instrs b)
            | None -> [])
          l.body
      in
      let uses = outside_uses f ~in_loop in
      List.iter
        (fun (r : Ir.reg) ->
          let outside_users = Option.value ~default:[] (Hashtbl.find_opt uses r) in
          if outside_users <> [] then begin
            (* Insert one φ per exit block whose predecessors all lie in the
               loop and are dominated by the definition; each gets one
               incoming per predecessor edge, in predecessor order. *)
            List.iter
              (fun exit_label ->
                match Func_index.find_block index exit_label with
                | None -> ()
                | Some eb ->
                    let preds = Func_index.predecessors index exit_label in
                    let loop_preds = List.filter in_loop preds in
                    if loop_preds <> [] then begin
                      match Ir.Names.find_opt def_tbl r with
                      | Some (d : Ir.def_site)
                        when List.for_all
                               (fun p ->
                                 Dom.dominates_block loop_info.dom ~a:d.block ~b:p)
                               loop_preds ->
                          if List.for_all in_loop preds then begin
                            let phi =
                              {
                                Ir.id = Ir.fresh_id f;
                                result = Some (Ir.fresh_reg ~hint:(r ^ ".lcssa") f);
                                rhs = Ir.Phi (List.map (fun p -> (p, Ir.Reg r)) preds);
                              }
                            in
                            let phi_reg = Option.get phi.result in
                            eb.phis <- eb.phis @ [ phi ];
                            (* The φ alone already mutates the function, even
                               if no outside use ends up rewritten below —
                               report the change, or the pass manager rolls
                               back a pass that misreports. *)
                            changed := true;
                            Code_mapper.add_instr m phi ~block:exit_label;
                            (* Rewrite outside uses dominated by this exit.  A
                               later exit also records a [replace] for every
                               user it dominates, even one an earlier exit
                               already rewrote. *)
                            let subst v =
                              if Ir.equal_value v (Ir.Reg r) then Ir.Reg phi_reg else v
                            in
                            List.iter
                              (fun u ->
                                let (ub : Ir.block), (ui : Ir.instr) =
                                  match u with
                                  | Instr (b, i) -> (b, i)
                                  | Term b ->
                                      (b, { Ir.id = b.term_id; result = None; rhs = Ir.Alloca 0 })
                                in
                                if
                                  Dom.dominates_block loop_info.dom ~a:exit_label ~b:ub.label
                                  && ui.id <> phi.id
                                then begin
                                  (match u with
                                  | Term _ -> ub.term <- Ir.map_term_operands subst ub.term
                                  | Instr _ -> ui.rhs <- Ir.map_rhs_operands subst ui.rhs);
                                  Code_mapper.replace_use_in m ~inst:ui ~old_value:(Ir.Reg r)
                                    ~new_value:(Ir.Reg phi_reg);
                                  changed := true
                                end)
                              outside_users
                          end
                      | _ -> ()
                    end)
              exits
          end)
        (List.sort_uniq String.compare defined_in_loop))
    loop_info.loops;
  !changed
