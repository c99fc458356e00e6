(** Dynamic diversity: the Section 1 obfuscation use case — "a program can
    be obfuscated to prevent security attacks by randomly diverting
    execution between different program versions at arbitrary execution
    points".

    {v dune exec examples/dynamic_diversity.exe v}

    Every run picks (from a seeded RNG) whether to start in the baseline or
    the optimized version, a random feasible OSR point, and a random dynamic
    arrival at which to divert to the other version.  All diversified runs
    must be observationally identical to the undiversified one. *)

module Ir = Miniir.Ir
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility
module Interp = Tinyvm.Interp
module Rt = Osrir.Osr_runtime

let runs = 12

let () =
  let entry = Option.get (Corpus.Kernels.find "fhourstones") in
  let fbase, _ = Corpus.Dsl.to_fbase entry.kernel in
  let r = P.apply fbase in
  let fwd = Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Base_to_opt in
  let bwd = Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Opt_to_base in
  let feasible ctx =
    List.filter_map
      (fun (rep : F.point_report) ->
        match (rep.landing, rep.avail_plan) with
        | Some l, Some p -> Some (rep.point, l, p)
        | _ -> None)
      (F.analyze ctx).reports
  in
  let fwd_sites = feasible fwd and bwd_sites = feasible bwd in
  Printf.printf "kernel %s: %d divert points baseline->optimized, %d optimized->baseline\n"
    entry.kernel.kname (List.length fwd_sites) (List.length bwd_sites);
  let reference = Interp.run r.fbase ~args:entry.default_args in
  Fmt.pr "reference: %a@." Interp.pp_result reference;
  let rng = Random.State.make [| 0xD1CE |] in
  let all_equal = ref true in
  for k = 1 to runs do
    let start_base = Random.State.bool rng in
    let src, target, sites =
      if start_base then (r.fbase, r.fopt, fwd_sites) else (r.fopt, r.fbase, bwd_sites)
    in
    let at, landing, plan = List.nth sites (Random.State.int rng (List.length sites)) in
    let arrival = Random.State.int rng 3 in
    let result, _ =
      Rt.Compiled.run_transition_full ~arrival ~src ~args:entry.default_args ~at ~target
        ~landing plan
    in
    let ok = Interp.equal_result reference result in
    if not ok then all_equal := false;
    Fmt.pr "run %2d: start=%-9s divert @#%-3d arrival=%d -> %a  %s@." k
      (if start_base then "baseline" else "optimized")
      at arrival Interp.pp_result result
      (if ok then "OK" else "DIVERGED")
  done;
  Printf.printf "all %d diversified runs observationally equal: %b\n" runs !all_equal
