(** Differential gate for the immutable OSR context: the feasibility sweep
    over contexts built once at construction against the memoizing code it
    replaced, kept verbatim in {!Ref_sweep}.  For every function pair, both
    directions, the default configuration and each single-switch ablation,
    the point reports (classification, landing, both plans, keep sets), the
    [reconstruct.*] counters and the remarks must be byte-identical; so
    must [Endangered.recovery_plan] for every register live at every
    landing, and [Endangered.analyze_function] on the debug study's
    inputs.  The pairs are the 12 kernels, a size-stratified sample of the
    [Spec_c] functions and generated functions. *)

module T = Telemetry
module Ir = Miniir.Ir
module Liveness = Miniir.Liveness
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module R = Osrir.Reconstruct_ir
module F = Osrir.Feasibility
module En = Debuginfo.Endangered
module Ref = Ref_sweep

let configs : (string * R.config) list =
  let d = R.default_config in
  [
    ("default", d);
    ("no constant-phi", { d with constant_phi = false });
    ("no aliases", { d with use_aliases = false });
    ("no gating", { d with gating = false });
  ]

(* Counter values of one group, keyed by counter name. *)
let group_values (group : string) : (string * int) list =
  List.filter_map
    (fun (c : T.counter) -> if c.T.group = group then Some (c.T.cname, c.T.value) else None)
    (T.counters ())

type observed = {
  reports : F.point_report list;
  counters : (string * int) list;
  remarks : string list;
}

let observe ~(group : string) (sweep : telemetry:T.sink -> F.point_report list) : observed =
  T.reset_counters ();
  let sink = T.create () in
  let reports = sweep ~telemetry:sink in
  {
    reports;
    counters = group_values group;
    remarks = List.map T.remark_to_string (T.remarks sink);
  }

let plan_to_string (p : R.plan option) : string =
  match p with
  | None -> "none"
  | Some p ->
      Printf.sprintf "transfers [%s] comp [%s] keep [%s]"
        (String.concat "; "
           (List.map (fun (x, v) -> x ^ " <- " ^ Ir.value_to_string v) p.R.transfers))
        (String.concat "; "
           (List.map
              (fun (c : R.comp_instr) -> c.R.target ^ " = " ^ Ir.rhs_to_string c.R.rhs)
              p.R.comp))
        (String.concat ", " p.R.keep)

(* Check one function pair; [what] names it in failure messages.  The new
   contexts are built once and serve every configuration, so an answer
   that depended on an earlier query would show up as a difference. *)
let check_pair ~(what : string) (r : P.apply_result) : unit =
  let fbase = r.P.fbase and fopt = r.P.fopt and mapper = r.P.mapper in
  let fwd, bwd = Ctx.make_pair ~fbase ~fopt ~mapper () in
  let ref_fwd, ref_bwd =
    Ref.Osr_ctx.make_pair ~fbase ~fopt ~mapper:(Ref_mapper.replay mapper) ()
  in
  List.iter
    (fun (dir, ctx, ref_ctx) ->
      List.iter
        (fun (cname, config) ->
          let what = Printf.sprintf "%s %s %s" what dir cname in
          let want =
            observe ~group:"ref.reconstruct" (fun ~telemetry ->
                Ref.Feasibility.sweep ~config ~telemetry ref_ctx)
          in
          let got =
            observe ~group:"reconstruct" (fun ~telemetry ->
                (F.analyze ~config ~telemetry ctx).F.reports)
          in
          Alcotest.(check int) (what ^ ": report count") (List.length want.reports)
            (List.length got.reports);
          List.iter2
            (fun (a : F.point_report) (b : F.point_report) ->
              if a <> b then
                Alcotest.failf "%s: point %d differs: live %s / %s, avail %s / %s" what a.F.point
                  (plan_to_string a.F.live_plan) (plan_to_string b.F.live_plan)
                  (plan_to_string a.F.avail_plan) (plan_to_string b.F.avail_plan))
            want.reports got.reports;
          Alcotest.(check (list (pair string int)))
            (what ^ ": reconstruct counters") want.counters got.counters;
          Alcotest.(check (list string)) (what ^ ": remarks") want.remarks got.remarks)
        configs;
      (* The tables built at construction, queried exhaustively: candidates
         of every destination register, and re-execution consistency of
         every destination definition in every destination block (the
         sweep reaches few pairs of sibling loops; the answer depends on
         the landing's block only, so its terminator stands for it). *)
      let dst = ctx.Ctx.dst.Ctx.func in
      let instrs = Ir.all_instrs dst in
      let def_ids =
        List.filter_map (fun (i : Ir.instr) -> Option.map (fun _ -> i.id) i.result) instrs
      in
      let point_ids = -1 :: List.map (fun (b : Ir.block) -> b.term_id) dst.Ir.blocks in
      List.iter
        (fun x ->
          List.iter
            (fun use_aliases ->
              Alcotest.(check (list string))
                (Printf.sprintf "%s %s: candidates of %%%s" what dir x)
                (List.map Ir.value_to_string (Ref.Osr_ctx.source_candidates ~use_aliases ref_ctx x))
                (List.map Ir.value_to_string (Ctx.source_candidates ~use_aliases ctx x)))
            [ true; false ])
        (dst.Ir.params @ List.filter_map (fun (i : Ir.instr) -> i.result) instrs);
      List.iter
        (fun def_id ->
          List.iter
            (fun landing ->
              if
                Ref.Osr_ctx.reexec_consistent ref_ctx ~def_id ~landing
                <> Ctx.reexec_consistent ctx ~def_id ~landing
              then Alcotest.failf "%s %s: reexec_consistent #%d at #%d" what dir def_id landing)
            point_ids)
        def_ids;
      (* Single-register recovery plans, as a debugger would ask for them. *)
      List.iter
        (fun p ->
          match Ctx.landing_point ctx p with
          | None -> ()
          | Some landing ->
              List.iter
                (fun x ->
                  List.iter
                    (fun variant ->
                      let want =
                        Ref.Endangered.recovery_plan ref_ctx variant ~opt_point:p
                          ~base_point:landing x
                      in
                      let got = En.recovery_plan ctx variant ~opt_point:p ~base_point:landing x in
                      if want <> got then
                        Alcotest.failf "%s %s: recovery plan of %%%s at %d -> %d: %s vs %s" what
                          dir x p landing (plan_to_string want) (plan_to_string got))
                    [ R.Live; R.Avail ])
                (Liveness.live_at ctx.Ctx.dst.Ctx.live landing))
        (Ctx.source_points ctx))
    [ ("fwd", fwd, ref_fwd); ("bwd", bwd, ref_bwd) ];
  T.reset_counters ()

let test_kernels () =
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      check_pair ~what:e.benchmark (P.apply (fst (Corpus.Dsl.to_fbase e.kernel))))
    Corpus.Kernels.all

(* The debug study's inputs: the Spec_c sample of [Suite_front] (the
   middle function of each of 128 size strata, plus the largest). *)
let test_spec_c () =
  let sample = Suite_front.spec_c_sample () in
  Alcotest.(check bool) "at least 128 functions" true (List.length sample >= 128);
  List.iter
    (fun (what, k) ->
      let fbase, (dbg : Corpus.Dsl.debug_info) = Corpus.Dsl.to_fbase k in
      let r = P.apply fbase in
      check_pair ~what r;
      let analyze f =
        f ~fbase:r.P.fbase ~fopt:r.P.fopt ~mapper:r.P.mapper ~user_vars:dbg.user_vars
          ~source_points:dbg.source_points
      in
      Alcotest.(check bool)
        (what ^ ": Endangered.analyze_function") true
        (analyze Ref.Endangered.analyze_function = analyze En.analyze_function))
    sample

let prop_generated =
  QCheck.Test.make ~count:60 ~name:"sweep identical on generated functions" Gen_ir.arb_func
    (fun (raw : Ir.func) ->
      check_pair ~what:raw.Ir.fname (P.apply (P.to_fbase raw));
      true)

let suite =
  ( "sweep",
    [
      Alcotest.test_case "kernels: sweep + recovery plans identical" `Quick test_kernels;
      Alcotest.test_case "Spec_c sample: sweep + endangered identical" `Quick test_spec_c;
      QCheck_alcotest.to_alcotest prop_generated;
    ] )
