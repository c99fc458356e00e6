(** Quickstart: the whole OSR pipeline on a small function, end to end.

    {v dune exec examples/quickstart.exe v}

    1. build a function in alloca form with the IR builder;
    2. promote it to SSA (fbase) and optimize a clone (fopt) with the
       OSR-aware pass pipeline, which records every primitive action;
    3. ask the feasibility analysis where OSR can fire and what
       compensation code each point needs;
    4. fire one optimizing transition mid-loop through a generated
       continuation function, and check the result matches. *)

module Ir = Miniir.Ir
module Builder = Miniir.Builder
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility
module R = Osrir.Reconstruct_ir
module Interp = Tinyvm.Interp

let build_function () : Ir.func =
  (* int f(int n, int k) { int acc = 0;
       for (int j = 0; j < n; j++) acc += k * 7 + j;    // k*7 is invariant
       return acc; } *)
  let b = Builder.create ~name:"accumulate" ~params:[ "n"; "k" ] in
  Builder.add_block_at b "entry";
  let acc = Builder.alloca ~reg:"acc.slot" b in
  let j = Builder.alloca ~reg:"j.slot" b in
  Builder.store b (Ir.Const 0) acc;
  Builder.store b (Ir.Const 0) j;
  Builder.br b "head";
  Builder.add_block_at b "head";
  let jv = Builder.load b j in
  let c = Builder.icmp b Ir.Slt jv (Builder.param b "n") in
  Builder.cbr b c "body" "exit";
  Builder.add_block_at b "body";
  let inv = Builder.mul b (Builder.param b "k") (Ir.Const 7) in
  let jv2 = Builder.load b j in
  let term = Builder.add b inv jv2 in
  let cur = Builder.load b acc in
  Builder.store b (Builder.add b cur term) acc;
  Builder.store b (Builder.add b jv2 (Ir.Const 1)) j;
  Builder.br b "head";
  Builder.add_block_at b "exit";
  let result = Builder.load b acc in
  Builder.ret b result;
  Builder.finish b

let () =
  print_endline "== 1. Build and promote ==";
  let raw = build_function () in
  let fbase = P.to_fbase raw in
  Printf.printf "fbase (%d instructions, %d phis):\n%s\n" (Ir.instr_count fbase)
    (Ir.phi_count fbase) (Ir.func_to_string fbase);

  print_endline "== 2. Optimize with the OSR-aware pipeline ==";
  let r = P.apply fbase in
  Printf.printf "fopt (%d instructions):\n%s\n" (Ir.instr_count r.fopt)
    (Ir.func_to_string r.fopt);
  Printf.printf "actions recorded: %d\n\n"
    (List.length (Passes.Code_mapper.actions_in_order r.mapper));

  print_endline "== 3. Where can OSR fire? ==";
  let ctx = Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Base_to_opt in
  let s = F.analyze ctx in
  Printf.printf "fbase -> fopt: %d points, %d empty-c, %d live, %d avail\n\n" s.total_points
    s.empty s.live_ok s.avail_ok;

  print_endline "== 4. Fire a transition mid-loop ==";
  (* Pick a point inside the loop body: the accumulator update. *)
  let point =
    let candidates =
      List.filter
        (fun (rep : F.point_report) -> rep.classification <> F.Infeasible)
        s.reports
    in
    (List.nth candidates (List.length candidates / 2)).point
  in
  match Ctx.landing_point ctx point with
  | None -> failwith "no landing"
  | Some landing -> (
      match R.for_point_pair ~variant:R.Avail ctx ~src_point:point ~landing with
      | Error x -> failwith ("reconstruct failed on " ^ x)
      | Ok plan ->
          Printf.printf "transition at #%d -> #%d, transfers=%d, |c|=%d\n" point landing
            (List.length plan.transfers) (R.comp_size plan);
          let args = [ 10; 3 ] in
          let reference = Interp.run r.fbase ~args in
          let osr, _ =
            Osrir.Osr_runtime.Compiled.run_transition_full ~arrival:2 ~src:r.fbase ~args
              ~at:point ~target:r.fopt ~landing plan
          in
          Fmt.pr "reference: %a@." Interp.pp_result reference;
          Fmt.pr "with OSR : %a@." Interp.pp_result osr;
          Fmt.pr "equal    : %b@." (Interp.equal_result reference osr))
