open Import

(** Loop-invariant code motion (LICM): hoist pure instructions whose
    operands are defined outside the loop (or are themselves hoisted
    invariants) into the loop preheader.  Requires LoopCanon to have run.

    Safety rules:
    - side-effecting instructions, φ-nodes and allocas never move;
    - possibly-trapping instructions ({!Ir.may_trap}: sdiv/srem, shifts by
      an amount not known to be in range) only move if their block
      dominates every loop exit (no speculation of traps);
    - loads only move if the loop contains no store or impure call
      (our alias analysis is "all memory may alias");
    - other pure instructions may be speculated freely.

    OSR-aware: every motion is recorded as a [hoist] action. *)

let stat_hoisted =
  Telemetry.counter ~group:"licm" "hoisted" ~desc:"loop-invariant instructions moved to preheaders"

let run (m : Code_mapper.t) (f : Ir.func) : bool =
  let tel = Code_mapper.telemetry m in
  let changed = ref false in
  (* Hoisting moves instructions but never touches blocks or edges, so one
     index, its dominator tree and its loops serve every loop below. *)
  let index = Func_index.make f in
  let loop_info = Loops.compute (Dom.compute index) in
  List.iter
    (fun (l : Loops.loop) ->
      match Loops.preheader index l with
      | None -> ()
      | Some ph_label ->
          let ph = Func_index.block_exn index ph_label in
          let loop_has_memory_effects =
            List.exists
              (fun label ->
                match Func_index.find_block index label with
                | Some b ->
                    List.exists
                      (fun (i : Ir.instr) ->
                        match i.rhs with
                        | Ir.Store _ -> true
                        | Ir.Call (name, _) -> not (Ir.is_pure_call name)
                        | _ -> false)
                      b.body
                | None -> false)
              l.body
          in
          let exits = Loops.exit_targets index l in
          (* Registers defined inside the loop (before any hoisting). *)
          let defined_in : (Ir.reg, unit) Hashtbl.t = Hashtbl.create 32 in
          List.iter
            (fun label ->
              match Func_index.find_block index label with
              | Some b ->
                  List.iter
                    (fun (i : Ir.instr) ->
                      match i.result with Some r -> Hashtbl.replace defined_in r () | None -> ())
                    (Ir.block_instrs b)
              | None -> ())
            l.body;
          let hoisted : (Ir.reg, unit) Hashtbl.t = Hashtbl.create 8 in
          let invariant_operand v =
            match v with
            | Ir.Const _ | Ir.Undef -> true
            | Ir.Reg r -> (not (Hashtbl.mem defined_in r)) || Hashtbl.mem hoisted r
          in
          let continue_ = ref true in
          while !continue_ do
            continue_ := false;
            List.iter
              (fun label ->
                match Func_index.find_block index label with
                | None -> ()
                | Some b ->
                    let dominates_exits =
                      List.for_all
                        (fun e -> Dom.dominates_block loop_info.dom ~a:label ~b:e)
                        exits
                    in
                    let to_hoist, keep =
                      List.partition
                        (fun (i : Ir.instr) ->
                          let movable =
                            match i.rhs with
                            | Ir.Phi _ | Ir.Alloca _ | Ir.Store _ -> false
                            | Ir.Call (name, _) when not (Ir.is_pure_call name) -> false
                            | Ir.Load _ -> not loop_has_memory_effects
                            | (Ir.Binop _ | Ir.Icmp _ | Ir.Select _ | Ir.Call _) as rhs ->
                                dominates_exits || not (Ir.may_trap rhs)
                          in
                          movable
                          && List.for_all invariant_operand (Ir.rhs_operands i.rhs))
                        b.body
                    in
                    if to_hoist <> [] then begin
                      changed := true;
                      continue_ := true;
                      b.body <- keep;
                      ph.body <- ph.body @ to_hoist;
                      List.iter
                        (fun (i : Ir.instr) ->
                          (match i.result with
                          | Some r -> Hashtbl.replace hoisted r ()
                          | None -> ());
                          Telemetry.bump tel stat_hoisted;
                          Telemetry.remark tel ~pass:"LICM" ~func:f.fname ~block:label
                            ~instr:i.id (fun () ->
                              Printf.sprintf "hoisted %s from loop %s to preheader %s"
                                (match i.result with Some r -> "%" ^ r | None -> "#" ^ string_of_int i.id)
                                l.header ph_label);
                          Code_mapper.hoist_instr m i ~from_block:label ~to_block:ph_label)
                        to_hoist
                    end)
              l.body
          done)
    loop_info.loops;
  !changed
