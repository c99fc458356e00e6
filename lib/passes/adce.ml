open Import

(** Aggressive dead code elimination (ADCE): start from the roots —
    side-effecting instructions and all terminators — and transitively mark
    everything they read; delete the rest.  Unlike a simple dead-store
    sweep, whole computation chains die at once.  OSR-aware: deletions are
    recorded. *)

let stat_deleted =
  Telemetry.counter ~group:"adce" "deleted" ~desc:"dead instructions removed"

let run (m : Code_mapper.t) (am : Analysis_manager.t) (f : Ir.func) : bool =
  let tel = Code_mapper.telemetry m in
  let def_tbl = Ir.def_table f in
  (* Live marks by instruction id, over the index's point range. *)
  let live = Array.make (Array.length (Analysis_manager.index am f).point_block) false in
  let worklist = Queue.create () in
  let mark_reg r =
    match Ir.Names.find_opt def_tbl r with
    | Some (d : Ir.def_site) ->
        if not live.(d.di.id) then begin
          live.(d.di.id) <- true;
          Queue.push d.di worklist
        end
    | None -> ()
  in
  (* Roots: side effects + terminator operands. *)
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          if Ir.has_side_effects i.rhs then begin
            live.(i.id) <- true;
            Queue.push i worklist
          end)
        (Ir.block_instrs b);
      List.iter mark_reg (Ir.term_uses b.term))
    f.blocks;
  while not (Queue.is_empty worklist) do
    let i = Queue.pop worklist in
    List.iter mark_reg (Ir.rhs_uses i.rhs)
  done;
  let changed = ref false in
  List.iter
    (fun (b : Ir.block) ->
      let keep (i : Ir.instr) =
        let k = live.(i.id) in
        if not k then begin
          Code_mapper.delete_instr m i;
          Telemetry.bump tel stat_deleted;
          Telemetry.remark tel ~pass:"ADCE" ~func:f.fname ~block:b.label ~instr:i.id
            (fun () ->
              match i.result with
              | Some r -> Printf.sprintf "deleted dead %%%s" r
              | None -> "deleted dead instruction");
          changed := true
        end;
        k
      in
      b.phis <- List.filter keep b.phis;
      b.body <- List.filter keep b.body)
    f.blocks;
  !changed
