(** Tests for the IR-level OSR machinery: point/value correspondence,
    reconstruct over SSA, feasibility analysis, continuation-function
    generation, and end-to-end OSR transitions through the TinyVM — the
    central soundness property of the whole system. *)

module Ir = Miniir.Ir
module Interp = Tinyvm.Interp
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module R = Osrir.Reconstruct_ir
module F = Osrir.Feasibility
module Rt = Osrir.Osr_runtime

let parse = Miniir.Ir_parser.parse_func

(* The running example: a loop with a foldable constant, an invariant
   multiplication and some dead code — all four directions of optimization
   activity. *)
let example () =
  parse
    "func @f(%x, %y) {\n\
     entry:\n\
    \  %k = add 2, 3\n\
    \  %dead = mul %x, 99\n\
    \  br head\n\
     head:\n\
    \  %i = phi [entry: 0], [body: %i2]\n\
    \  %acc = phi [entry: 0], [body: %acc2]\n\
    \  %c = icmp slt %i, %x\n\
    \  cbr %c, body, exit\n\
     body:\n\
    \  %inv = mul %y, %k\n\
    \  %acc2 = add %acc, %inv\n\
    \  %i2 = add %i, 1\n\
    \  br head\n\
     exit:\n\
    \  ret %acc\n\
     }\n"

let optimize f = P.apply f

let run_int f args =
  match Interp.run f ~args with
  | Ok o -> o.Interp.ret
  | Error t -> Alcotest.failf "trap: %a" Interp.pp_trap t

(* -------------------- correspondence -------------------- *)

let test_landing_points () =
  let r = optimize (example ()) in
  let ctx = Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Base_to_opt in
  (* Every source point must either land somewhere or be honestly
     unmapped. *)
  let points = Ctx.source_points ctx in
  Alcotest.(check bool) "nonempty universe" true (points <> []);
  List.iter
    (fun p ->
      match Ctx.landing_point ctx p with
      | Some landing ->
          Alcotest.(check bool) "landing exists in fopt" true
            (Ctx.is_point ctx.dst landing)
      | None -> ())
    points

let test_value_candidates () =
  let r = optimize (example ()) in
  let ctx = Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Opt_to_base in
  (* %k was folded to 5 in fopt: reconstructing base's %k from the
     optimized frame must offer the constant. *)
  Alcotest.(check bool) "k resolves to constant 5" true
    (List.exists (fun (c : Ctx.cand) -> c.cv = Ir.Const 5) (Ctx.candidates ctx "k"))

(* -------------------- feasibility -------------------- *)

let test_feasibility_shapes () =
  let r = optimize (example ()) in
  let fwd = F.analyze (Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Base_to_opt) in
  let bwd = F.analyze (Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Opt_to_base) in
  Alcotest.(check bool) "forward: some points feasible" true (fwd.avail_ok > 0);
  Alcotest.(check bool) "backward: some points feasible" true (bwd.avail_ok > 0);
  Alcotest.(check bool) "live ⊆ avail (fwd)" true (fwd.live_ok <= fwd.avail_ok);
  Alcotest.(check bool) "live ⊆ avail (bwd)" true (bwd.live_ok <= bwd.avail_ok);
  Alcotest.(check bool) "empty ⊆ live (fwd)" true (fwd.empty <= fwd.live_ok)

(* -------------------- continuation functions -------------------- *)

let test_contfun_verifies () =
  let r = optimize (example ()) in
  let ctx = Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Base_to_opt in
  let checked = ref 0 in
  List.iter
    (fun p ->
      match Ctx.landing_point ctx p with
      | None -> ()
      | Some landing -> (
          match snd (R.for_point_both ctx ~src_point:p ~landing) with
          | Error _ -> ()
          | Ok plan ->
              let cont = Osrir.Contfun.generate r.fopt ~landing plan in
              (match Miniir.Verifier.verify cont.fto with
              | Ok () -> incr checked
              | Error es ->
                  Alcotest.failf "f'to for %d→%d does not verify: %a@.%s" p landing
                    (Fmt.list ~sep:Fmt.cut Miniir.Verifier.pp_error)
                    es
                    (Ir.func_to_string cont.fto))))
    (Ctx.source_points ctx);
  Alcotest.(check bool) "checked some continuations" true (!checked > 0)

(* -------------------- end-to-end transitions -------------------- *)

(* The oracle: running src with an OSR firing at any feasible point must be
   observationally equal to running src to completion. *)
let transitions_correct ?(args_list = Gen_ir.sample_args) (fbase : Ir.func) : bool =
  let r = optimize fbase in
  let directions =
    [
      (Ctx.Base_to_opt, r.fbase, r.fopt);
      (Ctx.Opt_to_base, r.fopt, r.fbase);
    ]
  in
  List.for_all
    (fun (dir, src, target) ->
      let ctx = Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper dir in
      let summary = F.analyze ctx in
      List.for_all
        (fun (rep : F.point_report) ->
          match (rep.landing, rep.avail_plan) with
          | Some landing, Some plan ->
              List.for_all
                (fun args ->
                  let reference = Interp.run ~fuel:1_000_000 src ~args in
                  let with_osr, osr =
                    Rt.Reference.run_transition_full ~fuel:1_000_000 ~src ~args ~at:rep.point
                      ~target ~landing plan
                  in
                  (* A feasible point must not abort: an abort would fall
                     back to the source run and trivially satisfy the
                     equality below, hiding a reconstruction bug. *)
                  (match osr.Rt.aborted with
                  | [] -> ()
                  | { reason; _ } :: _ ->
                      QCheck.Test.fail_reportf "transfer aborted at %d→%d: %s" rep.point
                        landing
                        (Tinyvm.Osr_error.to_string reason));
                  Interp.equal_result reference with_osr
                  || QCheck.Test.fail_reportf
                       "OSR at %d→%d diverged: %a vs %a@.src:@.%s@.target:@.%s" rep.point
                       landing Interp.pp_result reference Interp.pp_result with_osr
                       (Ir.func_to_string src) (Ir.func_to_string target))
                args_list
          | _ -> true)
        summary.reports)
    directions

let test_example_transitions () =
  Alcotest.(check bool) "all feasible transitions sound" true
    (transitions_correct (example ()))

let test_transition_mid_loop () =
  (* Fire on the third arrival inside the loop: partial accumulator state
     must transfer. *)
  let r = optimize (example ()) in
  let ctx = Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Base_to_opt in
  let def_tbl = Ir.def_table r.fbase in
  let acc2 = (Hashtbl.find def_tbl "acc2").Ir.di.id in
  match Ctx.landing_point ctx acc2 with
  | None -> Alcotest.fail "acc2 has no landing"
  | Some landing -> (
      match snd (R.for_point_both ctx ~src_point:acc2 ~landing) with
      | Error x -> Alcotest.failf "reconstruct failed on %s" x
      | Ok plan ->
          let reference = run_int r.fbase [ 6; 3 ] in
          let osr, _ =
            Rt.Reference.run_transition_full ~arrival:2 ~src:r.fbase ~args:[ 6; 3 ] ~at:acc2
              ~target:r.fopt ~landing plan
          in
          (match osr with
          | Ok o -> Alcotest.(check int) "mid-loop transfer" reference o.Interp.ret
          | Error t -> Alcotest.failf "trap: %a" Interp.pp_trap t))

let test_memory_carried_across () =
  (* Memory written before the transition must be visible after. *)
  let f =
    parse
      "func @f(%x, %y) {\n\
       entry:\n\
      \  %s = alloca\n\
      \  store %x, %s\n\
      \  %k = add 1, 1\n\
      \  %v = load %s\n\
      \  %r = add %v, %k\n\
      \  %r2 = add %r, %y\n\
      \  ret %r2\n\
       }\n"
  in
  let fbase = P.to_fbase f in
  Alcotest.(check bool) "memory example transitions hold" true
    (transitions_correct fbase)

(* -------------------- gating functions (Section 9) -------------------- *)

let test_gating_reconstruction () =
  (* A two-way φ over values computed before the branch: without gating the
     φ defeats reconstruction; with it, compensation emits a select over
     the governing condition.  The transition jumps from before the branch
     to after the join, so the φ result must be materialized. *)
  let f =
    parse
      "func @g(%x, %y) {\n\
       entry:\n\
      \  %a = add %x, 1\n\
      \  %b = mul %x, 2\n\
      \  %c = icmp sgt %x, 0\n\
      \  cbr %c, t, e\n\
       t:\n\
      \  br j\n\
       e:\n\
      \  br j\n\
       j:\n\
      \  %m = phi [t: %a], [e: %b]\n\
      \  %r = add %m, %y\n\
      \  ret %r\n\
       }\n"
  in
  Miniir.Verifier.verify_exn f;
  let r = P.apply ~pipeline:[] f in
  let ctx = Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Base_to_opt in
  let def_tbl = Ir.def_table r.fbase in
  let cbr_id = (Ir.block_exn r.fbase "entry").term_id in
  let r_id = (Hashtbl.find def_tbl "r").Ir.di.id in
  (* Without gating: undef (the φ has two distinct incomings). *)
  let no_gate = { R.default_config with gating = false } in
  (match fst (R.for_point_both ~config:no_gate ctx ~src_point:cbr_id ~landing:r_id) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected undef without gating");
  (* With gating: a select materializes the φ. *)
  match fst (R.for_point_both ctx ~src_point:cbr_id ~landing:r_id) with
  | Error x -> Alcotest.failf "gating failed on %%%s" x
  | Ok plan ->
      Alcotest.(check bool) "plan contains a select" true
        (List.exists
           (fun (ci : R.comp_instr) ->
             match ci.rhs with Ir.Select _ -> true | _ -> false)
           plan.comp);
      (* Dynamic check on both branch polarities. *)
      List.iter
        (fun args ->
          let reference = Interp.run r.fbase ~args in
          let osr, _ =
            Rt.Reference.run_transition_full ~src:r.fbase ~args ~at:cbr_id ~target:r.fopt
              ~landing:r_id plan
          in
          Alcotest.(check bool)
            (Printf.sprintf "gated transition sound on %s"
               (String.concat "," (List.map string_of_int args)))
            true
            (Interp.equal_result reference osr))
        [ [ 5; 100 ]; [ -5; 100 ] ]

(* -------------------- properties -------------------- *)

let prop_transitions_sound =
  QCheck.Test.make ~count:25 ~name:"every feasible OSR transition is sound (both directions)"
    Gen_ir.arb_func (fun f0 ->
      let fbase = P.to_fbase f0 in
      transitions_correct ~args_list:[ [ 3; -2 ]; [ 0; 0 ]; [ 11; 7 ] ] fbase)

let prop_avail_superset =
  QCheck.Test.make ~count:30 ~name:"avail feasibility dominates live feasibility"
    Gen_ir.arb_func (fun f0 ->
      let fbase = P.to_fbase f0 in
      let r = optimize fbase in
      List.for_all
        (fun dir ->
          let s = F.analyze (Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper dir) in
          s.empty <= s.live_ok && s.live_ok <= s.avail_ok && s.avail_ok <= s.total_points)
        [ Ctx.Base_to_opt; Ctx.Opt_to_base ])

let prop_contfuns_verify =
  QCheck.Test.make ~count:20 ~name:"generated continuation functions verify"
    Gen_ir.arb_func (fun f0 ->
      let fbase = P.to_fbase f0 in
      let r = optimize fbase in
      let ctx = Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Base_to_opt in
      let summary = F.analyze ctx in
      List.for_all
        (fun (rep : F.point_report) ->
          match (rep.landing, rep.avail_plan) with
          | Some landing, Some plan -> (
              let cont = Osrir.Contfun.generate r.fopt ~landing plan in
              match Miniir.Verifier.verify cont.fto with
              | Ok () -> true
              | Error es ->
                  QCheck.Test.fail_reportf "%a@.%s"
                    (Fmt.list ~sep:Fmt.cut Miniir.Verifier.pp_error)
                    es
                    (Ir.func_to_string cont.fto))
          | _ -> true)
        summary.reports)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let q test = QCheck_alcotest.to_alcotest test in
  ( "osrir",
    [
      t "landing points resolve" test_landing_points;
      t "value candidates via replacements" test_value_candidates;
      t "feasibility shapes" test_feasibility_shapes;
      t "continuation functions verify" test_contfun_verifies;
      t "example transitions sound" test_example_transitions;
      t "transition mid-loop" test_transition_mid_loop;
      t "memory carried across" test_memory_carried_across;
      t "gating-function reconstruction" test_gating_reconstruction;
      q prop_transitions_sound;
      q prop_avail_superset;
      q prop_contfuns_verify;
    ] )
