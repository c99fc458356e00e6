(** Tests for the evaluation corpus: the 12 kernels and the Section 7
    study-function generator — well-formedness, determinism, semantic
    preservation under the pipeline, and soundness of OSR transitions on
    real kernel code (not just the random generator's output). *)

module Ir = Miniir.Ir
module P = Passes.Pass_manager
module Interp = Tinyvm.Interp
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility

let kernels = Corpus.Kernels.all

let test_kernels_verify () =
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let raw, dbg = Corpus.Dsl.lower e.kernel in
      Miniir.Verifier.verify_exn raw;
      let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
      Miniir.Verifier.verify_exn fbase;
      Alcotest.(check bool)
        (e.benchmark ^ " has user vars")
        true (dbg.user_vars <> []);
      Alcotest.(check bool)
        (e.benchmark ^ " has source points")
        true (dbg.source_points <> []))
    kernels

let test_kernels_pipeline_preserves () =
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
      let r = P.apply fbase in
      List.iter
        (fun args ->
          let a = Interp.run ~fuel:20_000_000 r.fbase ~args in
          let b = Interp.run ~fuel:20_000_000 r.fopt ~args in
          if not (Interp.equal_result a b) then
            Alcotest.failf "%s diverges on args %s: %a vs %a" e.benchmark
              (String.concat "," (List.map string_of_int args))
              Interp.pp_result a Interp.pp_result b)
        [ e.default_args; [ 3; 1 ]; [ 0; 0 ] ])
    kernels

let test_kernels_terminate_and_work () =
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
      match Interp.run ~fuel:20_000_000 fbase ~args:e.default_args with
      | Ok o -> Alcotest.(check bool) (e.benchmark ^ " does work") true (o.steps > 100)
      | Error t -> Alcotest.failf "%s traps: %a" e.benchmark Interp.pp_trap t)
    kernels

let test_source_points_survive () =
  List.iter
    (fun (e : Corpus.Kernels.entry) ->
      let fbase, dbg = Corpus.Dsl.to_fbase e.kernel in
      let present = Hashtbl.create 128 in
      List.iter (fun (i : Ir.instr) -> Hashtbl.replace present i.id ()) (Ir.all_instrs fbase);
      List.iter (fun (b : Ir.block) -> Hashtbl.replace present b.term_id ()) fbase.Ir.blocks;
      List.iter
        (fun p ->
          if not (Hashtbl.mem present p) then
            Alcotest.failf "%s: source point %d not in fbase" e.benchmark p)
        dbg.source_points)
    kernels

(* Transitions on real kernels: sample feasible points in both directions
   and check observational equality end-to-end. *)
let transitions_on_kernel (name : string) =
  let e = Option.get (Corpus.Kernels.find name) in
  let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
  let r = P.apply fbase in
  List.iter
    (fun (dir, src, target) ->
      let ctx = Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper dir in
      let s = F.analyze ctx in
      let feasible =
        List.filter_map
          (fun (rep : F.point_report) ->
            match (rep.landing, rep.avail_plan) with
            | Some l, Some p -> Some (rep.point, l, p)
            | _ -> None)
          s.reports
      in
      (* Sample every 5th feasible point to keep runtime acceptable. *)
      List.iteri
        (fun i (at, landing, plan) ->
          if i mod 5 = 0 then begin
            let reference = Interp.run ~fuel:20_000_000 src ~args:e.default_args in
            let osr, _ =
              Osrir.Osr_runtime.Reference.run_transition_full ~fuel:20_000_000 ~src
                ~args:e.default_args ~at ~target ~landing plan
            in
            if not (Interp.equal_result reference osr) then
              Alcotest.failf "%s: OSR %d→%d diverges: %a vs %a" name at landing
                Interp.pp_result reference Interp.pp_result osr
          end)
        feasible;
      Alcotest.(check bool) (name ^ " has feasible points") true (feasible <> []))
    [ (Ctx.Base_to_opt, r.fbase, r.fopt); (Ctx.Opt_to_base, r.fopt, r.fbase) ]

let test_transitions_fhourstones () = transitions_on_kernel "fhourstones"
let test_transitions_soplex () = transitions_on_kernel "soplex"
let test_transitions_vp8 () = transitions_on_kernel "vp8"
let test_transitions_hmmer () = transitions_on_kernel "hmmer"

(* --- the study generator -------------------------------------------- *)

let test_spec_c_deterministic () =
  let prof = Option.get (Corpus.Spec_c.find "mcf") in
  let a = Corpus.Spec_c.functions_of prof in
  let b = Corpus.Spec_c.functions_of prof in
  List.iter2
    (fun (x : Corpus.Spec_c.study_func) (y : Corpus.Spec_c.study_func) ->
      Alcotest.(check string) "same IR" (Ir.func_to_string x.fbase) (Ir.func_to_string y.fbase))
    a b

let test_spec_c_counts () =
  List.iter
    (fun (p : Corpus.Spec_c.profile) ->
      Alcotest.(check bool)
        (p.bench ^ " count positive")
        true (p.total_scaled >= 2);
      Alcotest.(check bool)
        (p.bench ^ " scaled from paper")
        true
        (p.total_scaled <= p.paper_total))
    Corpus.Spec_c.profiles

let test_spec_c_functions_run () =
  List.iter
    (fun bench ->
      let prof = Option.get (Corpus.Spec_c.find bench) in
      List.iter
        (fun (sf : Corpus.Spec_c.study_func) ->
          Miniir.Verifier.verify_exn sf.fbase;
          let r = P.apply sf.fbase in
          List.iter
            (fun args ->
              let a = Interp.run ~fuel:5_000_000 sf.fbase ~args in
              let b = Interp.run ~fuel:5_000_000 r.fopt ~args in
              if not (Interp.equal_result a b) then
                Alcotest.failf "%s/%s diverges" bench sf.fbase.Ir.fname)
            [ [ 5; -3 ]; [ 0; 11 ] ])
        (Corpus.Spec_c.functions_of prof))
    [ "bzip2"; "lbm"; "mcf"; "sjeng"; "libquantum" ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let s name f = Alcotest.test_case name `Slow f in
  ( "corpus",
    [
      t "kernels verify with debug info" test_kernels_verify;
      s "pipeline preserves kernel semantics" test_kernels_pipeline_preserves;
      s "kernels terminate and do work" test_kernels_terminate_and_work;
      t "source points survive mem2reg" test_source_points_survive;
      s "transitions sound on fhourstones" test_transitions_fhourstones;
      s "transitions sound on soplex" test_transitions_soplex;
      s "transitions sound on vp8" test_transitions_vp8;
      s "transitions sound on hmmer" test_transitions_hmmer;
      t "study generator deterministic" test_spec_c_deterministic;
      t "study profiles sane" test_spec_c_counts;
      s "study functions run and preserve" test_spec_c_functions_run;
    ] )
