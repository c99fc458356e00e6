(** The fault-injection robustness suite.

    Central invariant (the PR's acceptance criterion): for {e every}
    injected fault, the run either {e recovers} — observables byte-equal
    to the un-faulted differential run — or terminates with a typed
    {!Tinyvm.Osr_error.t}; never a crash, never a silently wrong answer.
    An aborted transition must provably resume the source frame unchanged
    (lockstep [next_instr_id]/[read_reg] agreement with a never-armed
    run). *)

module Ir = Miniir.Ir
module Interp = Tinyvm.Interp
module Engine = Tinyvm.Engine
module Osr_error = Tinyvm.Osr_error
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility
module Rt = Osrir.Osr_runtime
module Fault = Osrir.Fault

let parse = Miniir.Ir_parser.parse_func

(* Byte-equality of results, including the step count and the exact trap
   payload (stricter than [Interp.equal_result]). *)
let check_byte_equal ctx (a : (Interp.outcome, Interp.trap) result)
    (b : (Interp.outcome, Interp.trap) result) : unit =
  match (a, b) with
  | Ok x, Ok y ->
      Alcotest.(check int) (ctx ^ ": ret") x.Interp.ret y.Interp.ret;
      Alcotest.(check int) (ctx ^ ": steps") x.Interp.steps y.Interp.steps;
      Alcotest.(check bool)
        (ctx ^ ": events") true
        (List.equal Interp.equal_event x.Interp.events y.Interp.events)
  | Error ta, Error tb ->
      Alcotest.(check bool)
        (Fmt.str "%s: identical traps (%a vs %a)" ctx Interp.pp_trap ta Interp.pp_trap tb)
        true (ta = tb)
  | _ ->
      Alcotest.failf "%s: reference %a but faulted run %a" ctx Interp.pp_result a
        Interp.pp_result b

(* The recovery invariant for one faulted run against its un-faulted
   differential twin. *)
let assert_invariant ctx ~(injector : Fault.t)
    ~(reference : (Interp.outcome, Interp.trap) result)
    ~(result : (Interp.outcome, Interp.trap) result) ~(osr : Rt.osr_outcome) : unit =
  let fuel_faulted =
    List.exists (fun (k, _) -> k = Fault.Fuel_cut) (Fault.injected injector)
  in
  match osr.Rt.transition with
  | None ->
      (* Nothing committed: aborted attempts are observably no-ops, so the
         run must be byte-equal to the never-armed one — same return, same
         events, same step count, same trap payload. *)
      check_byte_equal ctx reference result
  | Some _ ->
      (* A committed transition (forced or legitimate) at a feasible point
         is sound: observably equal.  The one exception is an injected
         fuel cut surviving χ — the continuation may then exhaust its
         budget mid-run, which must surface as the typed fuel trap. *)
      if not (Interp.equal_result reference result) then (
        match result with
        | Error (Interp.Fuel_exhausted _) when fuel_faulted -> ()
        | _ ->
            Alcotest.failf "%s: committed transition diverged: %a vs %a" ctx
              Interp.pp_result reference Interp.pp_result result)

let feasible_points (r : P.apply_result) (dir : Ctx.direction) :
    (Ir.func * Ir.func * F.point_report * int * Osrir.Reconstruct_ir.plan) list =
  let src, target =
    match dir with
    | Ctx.Base_to_opt -> (r.P.fbase, r.P.fopt)
    | Ctx.Opt_to_base -> (r.P.fopt, r.P.fbase)
  in
  let ctx = Ctx.make ~fbase:r.P.fbase ~fopt:r.P.fopt ~mapper:r.P.mapper dir in
  let s = F.analyze ctx in
  List.filter_map
    (fun (rep : F.point_report) ->
      match (rep.F.landing, rep.F.avail_plan) with
      | Some landing, Some plan -> Some (src, target, rep, landing, plan)
      | _ -> None)
    s.F.reports

(* Feasibility is static: a feasible point may never be arrived at on the
   concrete input.  Pick the first one the actual run reaches [skip+1]
   times. *)
let first_reached_point ?(skip = 0) pts ~args =
  List.find_opt
    (fun (src, _, (rep : F.point_report), _, _) ->
      let m = Interp.create src ~args in
      Interp.run_to_point m ~point:rep.F.point ~skip <> None)
    pts
  |> Option.get

(* -------------------- every kind, deterministically -------------------- *)

(* For each fault kind, force it at a feasible corpus transition on both
   engines and check the invariant; for the kinds that must abort, also
   check the abort carries the right typed constructor. *)
let test_injected_kinds () =
  let kernels = [ "bzip2"; "sjeng" ] in
  List.iter
    (fun bench ->
      let entry = Option.get (Corpus.Kernels.find bench) in
      let fbase, _ = Corpus.Dsl.to_fbase entry.Corpus.Kernels.kernel in
      let r = P.apply fbase in
      let args = entry.Corpus.Kernels.default_args in
      (* A point with compensation work, if any — χ faults bite harder
         there. *)
      let pts = feasible_points r Ctx.Base_to_opt in
      let src, _target, rep, landing, plan =
        match
          List.find_opt
            (fun (_, _, _, _, (p : Osrir.Reconstruct_ir.plan)) -> p.comp <> [])
            pts
        with
        | Some x -> x
        | None -> List.hd pts
      in
      List.iter
        (fun (module E : Engine.S) ->
          let module M = Rt.Make (E) in
          List.iter
            (fun kind ->
              let ctx =
                Printf.sprintf "%s/%s/%s" bench E.name (Fault.kind_to_string kind)
              in
              let injector = Fault.make ~seed:0 in
              let hooks = Fault.hooks ~only:kind injector in
              let reference = E.run ~fuel:20_000_000 src ~args in
              let result, osr =
                M.run_transition_full ~fuel:20_000_000 ~hooks ~src ~args ~at:rep.F.point
                  ~target:_target ~landing plan
              in
              assert_invariant ctx ~injector ~reference ~result ~osr;
              match (kind, osr.Rt.aborted) with
              | Fault.Guard_trap, [ { Rt.reason = Osr_error.Guard_trap _; _ } ] -> ()
              | Fault.Guard_trap, a ->
                  Alcotest.failf "%s: expected one Guard_trap abort, got %d" ctx
                    (List.length a)
              | Fault.Chi_trap, [ { Rt.reason = Osr_error.Comp_trap _; _ } ] -> ()
              | Fault.Chi_trap, a ->
                  Alcotest.failf "%s: expected one Comp_trap abort, got %d" ctx
                    (List.length a)
              | Fault.Poison, [ { Rt.reason = Osr_error.Frame_invalid _; _ } ] -> ()
              | Fault.Poison, [] when osr.Rt.transition <> None ->
                  (* no live-in register to poison: the transition commits *)
                  ()
              | Fault.Poison, _ -> Alcotest.failf "%s: unexpected poison outcome" ctx
              | (Fault.Misfire | Fault.Suppress | Fault.Fuel_cut), _ -> ())
            Fault.all_kinds)
        Engine.all)
    kernels

(* -------------------- seeded random injection -------------------- *)

(* The fuzzing loop in miniature (the large-iteration version is
   `make fuzz`): seeded faults over corpus transitions, invariant checked
   for every run on both engines. *)
let test_seeded_corpus () =
  List.iter
    (fun (entry : Corpus.Kernels.entry) ->
      let fbase, _ = Corpus.Dsl.to_fbase entry.kernel in
      let r = P.apply fbase in
      let args = entry.default_args in
      match feasible_points r Ctx.Base_to_opt with
      | [] -> ()
      | pts ->
          List.iter
            (fun (module E : Engine.S) ->
              let module M = Rt.Make (E) in
              let reference = E.run ~fuel:20_000_000 fbase ~args in
              for seed = 1 to 5 do
                let src, target, rep, landing, plan =
                  List.nth pts (seed * 7 mod List.length pts)
                in
                ignore (src : Ir.func);
                let injector = Fault.make ~seed in
                let hooks = Fault.hooks injector in
                let result, osr =
                  M.run_transition_full ~fuel:20_000_000 ~hooks ~arrival:(seed mod 3)
                    ~src:fbase ~args ~at:rep.F.point ~target ~landing plan
                in
                let ctx = Printf.sprintf "%s/%s/seed=%d" entry.benchmark E.name seed in
                assert_invariant ctx ~injector ~reference ~result ~osr
              done)
            Engine.all)
    Corpus.Kernels.all

(* Randomized functions through the whole pipeline: optimize, sweep,
   inject seeded faults at every feasible point. *)
let prop_seeded_random_functions =
  QCheck.Test.make ~count:15 ~name:"fault-injection invariant on random functions"
    Gen_ir.arb_func (fun f0 ->
      let fbase = P.to_fbase f0 in
      let r = P.apply fbase in
      List.iter
        (fun dir ->
          List.iteri
            (fun i (src, target, (rep : F.point_report), landing, plan) ->
              List.iter
                (fun args ->
                  let reference = Interp.run ~fuel:1_000_000 src ~args in
                  let injector = Fault.make ~seed:(i + (17 * List.length args)) in
                  let hooks = Fault.hooks injector in
                  let result, osr =
                    Rt.Reference.run_transition_full ~fuel:1_000_000 ~hooks ~src ~args ~at:rep.F.point
                      ~target ~landing plan
                  in
                  let ctx = Printf.sprintf "point #%d" rep.F.point in
                  assert_invariant ctx ~injector ~reference ~result ~osr)
                [ [ 3; -2 ]; [ 7; 5 ] ])
            (feasible_points r dir))
        [ Ctx.Base_to_opt; Ctx.Opt_to_base ];
      true)

(* -------------------- abort resumes the source frame ------------------ *)

(* The strongest form of the recovery guarantee: pause the source at the
   armed point, force a failing transition attempt via [fire], then drive
   the survivor and a never-armed twin in lockstep — the program point and
   every register must agree at every step until both finish. *)
let test_abort_resumes_source_lockstep () =
  let entry = Option.get (Corpus.Kernels.find "bzip2") in
  let fbase, _ = Corpus.Dsl.to_fbase entry.kernel in
  let r = P.apply fbase in
  let args = entry.default_args in
  let src, target, rep, landing, plan =
    first_reached_point ~skip:1 (feasible_points r Ctx.Base_to_opt) ~args
  in
  let regs = src.Ir.params @ List.of_seq (Ir.Names.to_seq_keys (Ir.def_table src)) in
  let cont = Osrir.Contfun.generate target ~landing plan in
  let ma = Interp.create src ~args in
  let mb = Interp.create src ~args in
  (match
     ( Interp.run_to_point ma ~point:rep.F.point ~skip:1,
       Interp.run_to_point mb ~point:rep.F.point ~skip:1 )
   with
  | Some _, Some _ -> ()
  | _ -> Alcotest.fail "point not reached");
  (* A failing attempt: χ trap injected. *)
  let injector = Fault.make ~seed:0 in
  let hooks = Fault.hooks ~only:Fault.Chi_trap injector in
  (match Rt.Reference.fire ~hooks ma { Rt.at = rep.F.point; guard = (fun _ -> true); cont } with
  | Error (Osr_error.Comp_trap _) -> ()
  | Error e -> Alcotest.failf "unexpected abort reason: %s" (Osr_error.to_string e)
  | Ok _ -> Alcotest.fail "χ-trapped attempt committed");
  (* Lockstep: the survivor is indistinguishable from the never-armed
     twin. *)
  let step_count = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr step_count;
    Alcotest.(check (option int))
      (Printf.sprintf "program point agrees at step %d" !step_count)
      (Interp.next_instr_id mb) (Interp.next_instr_id ma);
    List.iter
      (fun reg ->
        if Hashtbl.find_opt mb.Interp.frame reg <> Hashtbl.find_opt ma.Interp.frame reg
        then
          Alcotest.failf "register %%%s disagrees at step %d (point %s)" reg !step_count
            (match Interp.next_instr_id mb with
            | Some id -> "#" ^ string_of_int id
            | None -> "-"))
      regs;
    let sa = Interp.step ma and sb = Interp.step mb in
    match (sa, sb) with
    | Interp.Running, Interp.Running -> ()
    | Interp.Returned a, Interp.Returned b ->
        Alcotest.(check int) "lockstep ret" b a;
        continue_ := false
    | Interp.Trapped ta, Interp.Trapped tb ->
        Alcotest.(check bool) "lockstep trap" true (ta = tb);
        continue_ := false
    | _ -> Alcotest.fail "lockstep status divergence"
  done;
  Alcotest.(check int) "lockstep steps" mb.Interp.steps ma.Interp.steps

(* -------------------- atomic memory rollback -------------------- *)

(* χ in the raw demoted form (promote:false) allocates and stores before
   it traps: the rollback must restore the heap byte-for-byte, and the
   resumed source run must match the never-armed one exactly. *)
let test_memory_rollback_mid_chi () =
  let entry = Option.get (Corpus.Kernels.find "bzip2") in
  let fbase, _ = Corpus.Dsl.to_fbase entry.kernel in
  let r = P.apply fbase in
  let args = entry.default_args in
  let has_mem_effects (cont : Osrir.Contfun.t) =
    List.exists
      (fun (i : Ir.instr) ->
        match i.Ir.rhs with Ir.Alloca _ | Ir.Store _ -> true | _ -> false)
      (Ir.entry cont.Osrir.Contfun.fto).Ir.body
  in
  let src, target, rep, landing, plan =
    List.find_opt
      (fun (src, target, (rep : F.point_report), landing, plan) ->
        has_mem_effects (Osrir.Contfun.generate ~promote:false target ~landing plan)
        &&
        let m = Interp.create src ~args in
        Interp.run_to_point m ~point:rep.F.point <> None)
      (feasible_points r Ctx.Base_to_opt)
    |> Option.get
  in
  let cont = Osrir.Contfun.generate ~promote:false target ~landing plan in
  Alcotest.(check bool) "demoted χ has memory effects" true (has_mem_effects cont);
  let m = Interp.create src ~args in
  (match Interp.run_to_point m ~point:rep.F.point with
  | Some _ -> ()
  | None -> Alcotest.fail "point not reached");
  let snap_cells = Hashtbl.copy m.Interp.memory.Interp.cells in
  let snap_brk = m.Interp.memory.Interp.brk in
  let injector = Fault.make ~seed:0 in
  let hooks = Fault.hooks ~only:Fault.Chi_trap injector in
  (match Rt.Reference.fire ~hooks m { Rt.at = rep.F.point; guard = (fun _ -> true); cont } with
  | Error (Osr_error.Comp_trap _) -> ()
  | Error e -> Alcotest.failf "unexpected abort reason: %s" (Osr_error.to_string e)
  | Ok _ -> Alcotest.fail "χ-trapped attempt committed");
  Alcotest.(check int) "brk restored" snap_brk m.Interp.memory.Interp.brk;
  Alcotest.(check int) "cell count restored" (Hashtbl.length snap_cells)
    (Hashtbl.length m.Interp.memory.Interp.cells);
  Hashtbl.iter
    (fun k v ->
      Alcotest.(check (option int))
        (Printf.sprintf "cell %d restored" k)
        (Some v)
        (Hashtbl.find_opt m.Interp.memory.Interp.cells k))
    snap_cells;
  (* And the survivor still finishes exactly like an untouched run. *)
  check_byte_equal "post-rollback run" (Interp.run ~fuel:20_000_000 src ~args)
    (Interp.run_machine ~fuel:20_000_000 m)

(* The un-injected promote:false transition must also commit and agree —
   χ's real memory writes (the demotion slots) survive the commit. *)
let test_demoted_chi_commits () =
  let entry = Option.get (Corpus.Kernels.find "bzip2") in
  let fbase, _ = Corpus.Dsl.to_fbase entry.kernel in
  let r = P.apply fbase in
  let args = entry.default_args in
  let src, target, rep, landing, plan = List.hd (feasible_points r Ctx.Base_to_opt) in
  let cont = Osrir.Contfun.generate ~promote:false target ~landing plan in
  let m = Interp.create src ~args in
  let result, osr =
    Rt.Reference.run_with_osr ~fuel:20_000_000 m
      [ { Rt.at = rep.F.point; guard = (fun _ -> true); cont } ]
  in
  Alcotest.(check bool) "committed" true (osr.Rt.transition <> None);
  Alcotest.(check bool)
    "observably equal" true
    (Interp.equal_result (Interp.run ~fuel:20_000_000 src ~args) result)

(* -------------------- validation necessity -------------------- *)

(* A poisoned frame: landing-point validation aborts the transition and
   the run recovers byte-equal. *)
let test_validation_catches_poison () =
  let entry = Option.get (Corpus.Kernels.find "sjeng") in
  let fbase, _ = Corpus.Dsl.to_fbase entry.kernel in
  let r = P.apply fbase in
  let args = entry.default_args in
  match
    List.find_opt
      (fun (_, _, _, _, _) -> true)
      (List.filter
         (fun (_, t, _, l, p) ->
           ignore (p : Osrir.Reconstruct_ir.plan);
           (Osrir.Contfun.generate t ~landing:l p).Osrir.Contfun.live_in <> [])
         (feasible_points r Ctx.Base_to_opt))
  with
  | None -> Alcotest.skip ()
  | Some (src, target, rep, landing, plan) ->
      let reference = Interp.run ~fuel:20_000_000 src ~args in
      let hooks = Fault.hooks ~only:Fault.Poison (Fault.make ~seed:3) in
      let result, osr =
        Rt.Reference.run_transition_full ~fuel:20_000_000 ~hooks ~src ~args ~at:rep.F.point
          ~target ~landing plan
      in
      (match osr.Rt.aborted with
      | [ { Rt.reason = Osr_error.Frame_invalid { missing = _ :: _; _ }; _ } ] -> ()
      | _ -> Alcotest.fail "validation did not catch the poisoned frame");
      check_byte_equal "validated run recovers" reference result

(* -------------------- fuel budgets -------------------- *)

let test_fuel_budgets () =
  let entry = Option.get (Corpus.Kernels.find "bzip2") in
  let fbase, _ = Corpus.Dsl.to_fbase entry.kernel in
  let args = entry.default_args in
  List.iter
    (fun (module E : Engine.S) ->
      (* Engine-level budget on create. *)
      let m = E.create ~fuel:100 fbase ~args in
      (match E.run_machine m with
      | Error (Interp.Fuel_exhausted 100) -> ()
      | r -> Alcotest.failf "%s: expected Fuel_exhausted 100, got %a" E.name Interp.pp_result r);
      (* run_machine's own clamp. *)
      match E.run ~fuel:37 fbase ~args with
      | Error (Interp.Fuel_exhausted 37) -> ()
      | r -> Alcotest.failf "%s: expected Fuel_exhausted 37, got %a" E.name Interp.pp_result r)
    Engine.all;
  (* Both engines agree byte-for-byte on the fuel trap. *)
  check_byte_equal "fuel trap differential"
    (Interp.run ~fuel:500 fbase ~args)
    (Engine.Compiled.run ~fuel:500 fbase ~args)

(* Adversarial non-termination: a plain infinite loop terminates with the
   typed trap instead of hanging. *)
let test_fuel_stops_infinite_loop () =
  let f =
    parse "func @spin(%x) {\nentry:\n  br head\nhead:\n  br head\n}\n"
  in
  List.iter
    (fun (module E : Engine.S) ->
      match E.run ~fuel:10_000 f ~args:[ 1 ] with
      | Error (Interp.Fuel_exhausted _) -> ()
      | r -> Alcotest.failf "%s: expected fuel trap, got %a" E.name Interp.pp_result r)
    Engine.all

(* -------------------- pass-pipeline sandboxing -------------------- *)

(* A deliberately miscompiling pass: its output fails SSA verification, so
   the sandboxed pipeline must undo it (IR and mapper history) and keep
   going. *)
let corrupt_pass : P.pass =
  {
    P.pname = "corrupt";
    run =
      (fun m _ f ->
        (* Record a bogus action too — rollback must erase it. *)
        Passes.Code_mapper.(record m (Delete { id = 424242 }));
        (Ir.entry f).Ir.term <- Ir.Br "$nowhere";
        true);
    preserves = [];
  }

let test_sandboxed_pipeline () =
  let entry = Option.get (Corpus.Kernels.find "bzip2") in
  let fbase, _ = Corpus.Dsl.to_fbase entry.kernel in
  let sabotaged =
    let insert = function
      | [] -> [ corrupt_pass ]
      | p :: rest -> p :: corrupt_pass :: rest
    in
    insert P.standard_pipeline
  in
  Telemetry.reset_counters ();
  let sink = Telemetry.create () in
  let r_clean = P.apply fbase in
  let r_sand = P.apply ~pipeline:sabotaged ~telemetry:sink fbase in
  (* The corrupting pass degraded to a no-op: same optimized IR, same
     action history as the clean pipeline. *)
  Alcotest.(check string) "rolled-back pipeline produces the clean fopt"
    (Ir.func_to_string r_clean.P.fopt)
    (Ir.func_to_string r_sand.P.fopt);
  Alcotest.(check int) "same action count"
    (List.length (Passes.Code_mapper.actions_in_order r_clean.P.mapper))
    (List.length (Passes.Code_mapper.actions_in_order r_sand.P.mapper));
  Alcotest.(check int) "pass.rolled_back counted" 1 P.stat_rolled_back.Telemetry.value;
  (* The rolled-back pass reports zero actions in the per-pass table. *)
  (match List.assoc_opt "corrupt" r_sand.P.per_pass with
  | Some c ->
      Alcotest.(check int) "corrupt pass reports no actions" 0
        Passes.Code_mapper.(c.add + c.delete + c.hoist + c.sink + c.replace)
  | None -> Alcotest.fail "corrupt pass missing from per-pass table");
  (* A remark names the rollback. *)
  Alcotest.(check bool) "rollback remark emitted" true
    (List.exists
       (fun rk -> String.length (Telemetry.remark_to_string rk) > 0)
       (Telemetry.remarks ~pass:"corrupt" sink));
  (* And the sandboxed result still runs correctly. *)
  Alcotest.(check bool) "sandboxed fopt behaves" true
    (Interp.equal_result
       (Interp.run fbase ~args:entry.default_args)
       (Interp.run r_sand.P.fopt ~args:entry.default_args));
  Telemetry.reset_counters ()

(* A pass that edits the function but reports no change.  The edit is
   valid SSA, so only the comparison with the pre-pass clone can catch
   it. *)
let misreporting_pass : P.pass =
  {
    P.pname = "misreport";
    run =
      (fun _ _ f ->
        let e = Ir.entry f in
        e.Ir.body <-
          e.Ir.body
          @ [ { Ir.id = Ir.fresh_id f; result = Some (Ir.fresh_reg f); rhs = Ir.Binop (Ir.Add, Ir.Const 1, Ir.Const 2) } ];
        false);
    preserves = [];
  }

let test_misreport_rolled_back () =
  let entry = Option.get (Corpus.Kernels.find "bzip2") in
  let fbase, _ = Corpus.Dsl.to_fbase entry.kernel in
  Telemetry.reset_counters ();
  let sink = Telemetry.create () in
  let r_clean = P.apply fbase in
  let r = P.apply ~pipeline:(P.standard_pipeline @ [ misreporting_pass ]) ~telemetry:sink fbase in
  Alcotest.(check string) "misreporting pass undone" (Ir.func_to_string r_clean.P.fopt)
    (Ir.func_to_string r.P.fopt);
  Alcotest.(check int) "pass.rolled_back counted" 1 P.stat_rolled_back.Telemetry.value;
  Alcotest.(check (list string)) "a remark names the misreport"
    [ "[misreport] (bzip2_block_sort) pass rolled back: reported no change but changed the function" ]
    (List.map Telemetry.remark_to_string (Telemetry.remarks ~pass:"misreport" sink));
  Telemetry.reset_counters ()

(* A pass that changes nothing and says so is verified only while no
   verification in the call has accepted the function yet. *)
let test_unchanged_skips_verify () =
  let silent : P.pass = { P.pname = "silent"; run = (fun _ _ _ -> false); preserves = [] } in
  let entry = Option.get (Corpus.Kernels.find "bzip2") in
  let fbase, _ = Corpus.Dsl.to_fbase entry.kernel in
  let sink = Telemetry.create () in
  let r = P.apply ~pipeline:[ silent; silent; silent ] ~telemetry:sink fbase in
  Alcotest.(check string) "function unchanged" (Ir.func_to_string fbase) (Ir.func_to_string r.P.fopt);
  Alcotest.(check (list (pair string int))) "one verification for three passes"
    [ ("silent", 3); ("verify", 1) ]
    (List.sort compare (List.map (fun (n, c, _, _) -> (n, c)) (Telemetry.span_rows sink)))

(* -------------------- typed errors surface, exceptions don't ---------- *)

let test_typed_errors () =
  (* Contfun.generate on a bogus landing: typed, not Invalid_argument. *)
  let entry = Option.get (Corpus.Kernels.find "bzip2") in
  let fbase, _ = Corpus.Dsl.to_fbase entry.kernel in
  let r = P.apply fbase in
  let _, _, _, _, plan = List.hd (feasible_points r Ctx.Base_to_opt) in
  (match Osrir.Contfun.generate r.P.fopt ~landing:987654 plan with
  | exception Osr_error.Error (Osr_error.No_such_point { point = 987654; _ }) -> ()
  | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "bogus landing accepted");
  (* Compiled write_reg on an unknown register: typed. *)
  let m = Engine.Compiled.create fbase ~args:entry.default_args in
  (match Engine.Compiled.write_reg m "no_such_reg" 1 with
  | exception Osr_error.Error (Osr_error.Unknown_register { reg = "no_such_reg"; _ }) -> ()
  | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | () -> Alcotest.fail "unknown register accepted");
  (* Engine lookup: typed. *)
  (match Engine.of_name_exn "llvm" with
  | exception Osr_error.Error (Osr_error.Engine_mismatch { got = "llvm"; _ }) -> ()
  | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "bogus engine accepted");
  (* Every error renders as one line (the CLI diagnostic contract). *)
  List.iter
    (fun e ->
      let s = Osr_error.to_string e in
      Alcotest.(check bool) ("one-line: " ^ s) false (String.contains s '\n'))
    [
      Osr_error.Reconstruct_failed { func = "f"; at = 1; what = "w" };
      Osr_error.Frame_invalid { func = "f"; landing = 2; missing = [ "a"; "b" ] };
      Osr_error.Guard_trap { func = "f"; at = 3; trap = Interp.Undef_read 3 };
      Osr_error.Comp_trap { func = "f"; at = 4; landing = 5; trap = Interp.Division_by_zero 4 };
      Osr_error.Fuel_exhausted { func = "f"; steps = 6 };
      Osr_error.Engine_mismatch { expected = "e"; got = "g" };
      Osr_error.No_such_point { func = "f"; point = 7 };
      Osr_error.Unknown_register { func = "f"; reg = "r" };
      Osr_error.Internal { what = "w" };
    ]

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "robustness",
    [
      t "every fault kind, deterministically" test_injected_kinds;
      t "seeded faults over the corpus" test_seeded_corpus;
      t "abort resumes the source frame (lockstep)" test_abort_resumes_source_lockstep;
      t "memory rollback mid-χ" test_memory_rollback_mid_chi;
      t "demoted χ commits" test_demoted_chi_commits;
      t "validation catches a poisoned frame" test_validation_catches_poison;
      t "fuel budgets on both engines" test_fuel_budgets;
      t "fuel stops an infinite loop" test_fuel_stops_infinite_loop;
      t "sandboxed pass pipeline rolls back" test_sandboxed_pipeline;
      t "a misreported no-change is rolled back" test_misreport_rolled_back;
      t "an unchanged pass skips the verifier" test_unchanged_skips_verify;
      t "typed errors replace exceptions" test_typed_errors;
      QCheck_alcotest.to_alcotest prop_seeded_random_functions;
    ] )
