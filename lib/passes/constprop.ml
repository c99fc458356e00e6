open Import

(** Constant propagation (the paper's CP): fold instructions whose operands
    are constants, replace all uses of the result with the constant, and
    delete the instruction.  Also simplifies single-value φ-nodes exposed by
    the folding.  OSR-aware: every deletion and use-rewrite is recorded in
    the CodeMapper. *)

let stat_folded = Telemetry.counter ~group:"cp" "folded" ~desc:"constant instructions folded"

let stat_phi =
  Telemetry.counter ~group:"cp" "phi" ~desc:"single-value phi-nodes simplified"

let run (m : Code_mapper.t) (f : Ir.func) : bool =
  let tel = Code_mapper.telemetry m in
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    (* Find a foldable instruction. *)
    let try_fold (b : Ir.block) (i : Ir.instr) : bool =
      match (Fold.fold_rhs i.rhs, i.result) with
      | Some n, Some r ->
          Code_mapper.replace_all_uses m f ~old_value:(Ir.Reg r) ~new_value:(Ir.Const n);
          Code_mapper.delete_instr m i;
          Telemetry.bump tel stat_folded;
          Telemetry.remark tel ~pass:"CP" ~func:f.fname ~block:b.label ~instr:i.id
            (fun () -> Printf.sprintf "folded %%%s to %d" r n);
          b.body <- List.filter (fun (j : Ir.instr) -> j.id <> i.id) b.body;
          true
      | _ -> false
    in
    (* Single-value φ: all incomings identical (and not the φ itself). *)
    let try_phi (b : Ir.block) (i : Ir.instr) : bool =
      match (i.rhs, i.result) with
      | Ir.Phi ((_, v0) :: rest), Some r
        when List.for_all (fun (_, v) -> Ir.equal_value v v0) rest
             && not (Ir.equal_value v0 (Ir.Reg r)) ->
          Code_mapper.replace_all_uses m f ~old_value:(Ir.Reg r) ~new_value:v0;
          Code_mapper.delete_instr m i;
          Telemetry.bump tel stat_phi;
          Telemetry.remark tel ~pass:"CP" ~func:f.fname ~block:b.label ~instr:i.id
            (fun () ->
              Printf.sprintf "phi %%%s collapsed to %s" r (Ir.value_to_string v0));
          b.phis <- List.filter (fun (j : Ir.instr) -> j.id <> i.id) b.phis;
          true
      | _ -> false
    in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun i ->
            if try_fold b i then begin
              changed := true;
              continue_ := true
            end)
          b.body;
        List.iter
          (fun i ->
            if try_phi b i then begin
              changed := true;
              continue_ := true
            end)
          b.phis)
      f.blocks
  done;
  !changed
