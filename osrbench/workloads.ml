(** The three workloads.  Each replays a fixed, seeded cycle of ops; the
    cycle is balanced so that every seed gives the same mix of work. *)

open Workload
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx

(** [tierup]: one op is the whole JIT path for one corpus kernel — build
    [fbase], run the OSR-aware pipeline, sweep both directions, pick a
    profiled feasible point and arrival, generate the continuation, and
    run the compiled engine with that point armed until the transition
    fires and the activation returns.  The pipeline does most of the work.
    A cycle is [rounds] seeded permutations of the 12 kernels. *)
module Tierup = struct
  type op_spec = {
    entry : Corpus.Kernels.entry;
    args : int list;
    pick : int;  (** seeded draw choosing the feasible point *)
    arrival_draw : int;
    oracle : reference;
  }

  type t = op_spec array

  let name = "tierup"

  let setup ~(quick : bool) ~(seed : int) : t =
    let kernels = Array.of_list Corpus.Kernels.all in
    let nk = Array.length kernels in
    let rounds = if quick then 1 else 2 in
    let order = stream ~seed "tierup.order" and draws = stream ~seed "tierup.inputs" in
    let fbases =
      Array.init nk (fun k -> fst (Corpus.Dsl.to_fbase kernels.(k).Corpus.Kernels.kernel))
    in
    let perms =
      Array.init rounds (fun _ ->
          let p = Array.init nk Fun.id in
          shuffle order p;
          p)
    in
    Array.init (rounds * nk) (fun i ->
        let k = perms.(i / nk).(i mod nk) in
        let entry = kernels.(k) in
        let args = kernel_args draws entry in
        let pick = Random.State.bits draws in
        let arrival_draw = Random.State.bits draws in
        { entry; args; pick; arrival_draw; oracle = reference fbases.(k) ~args })

  let cycle (t : t) : int = Array.length t
  let window = cycle

  let op (t : t) (tr : Tracer.t) ~(counts : int array) (i : int) : unit -> bool =
    let s = t.(i) in
    let tel = tr.Tracer.sink in
    let fbase, _ =
      Tracer.span tr "to_fbase" (fun () -> Corpus.Dsl.to_fbase s.entry.Corpus.Kernels.kernel)
    in
    let r = Tracer.span tr "apply" (fun () -> P.apply ~telemetry:tel fbase) in
    let fwd_ctx, bwd_ctx =
      Tracer.span tr "ctx" (fun () ->
          Ctx.make_pair ~fbase:r.P.fbase ~fopt:r.P.fopt ~mapper:r.P.mapper ())
    in
    let fwd = Tracer.span tr "sweep_fwd" (fun () -> F.analyze ~telemetry:tel fwd_ctx) in
    let bwd = Tracer.span tr "sweep_bwd" (fun () -> F.analyze ~telemetry:tel bwd_ctx) in
    count_pipeline counts r;
    bump counts c_points (fwd.F.total_points + bwd.F.total_points);
    bump counts c_live (fwd.F.live_ok + bwd.F.live_ok);
    bump counts c_avail (fwd.F.avail_ok + bwd.F.avail_ok);
    match Array.of_list (feasible_sites fwd [ s.oracle.arrivals ]) with
    | [||] -> fun () -> false
    | sites ->
        let site = sites.(s.pick mod Array.length sites) in
        let cont =
          Tracer.span tr "contfun" (fun () ->
              Osrir.Contfun.generate r.P.fopt ~landing:site.landing site.plan)
        in
        let m =
          Tracer.span tr "create" (fun () -> E.create ~telemetry:tel ~fuel fbase ~args:s.args)
        in
        let fire = Some (site.point, cont, arrival s.arrival_draw site) in
        let a = activate tr m ~armed:[] ~fire in
        bump counts c_contfun (Ir.instr_count cont.Osrir.Contfun.fto);
        count_activation counts a ~fired:true;
        fun () -> activation_ok a ~fired:true ~want:s.oracle.outcome

  let verify (_ : t) = (0, 0, [])
end

(** [steady]: one op is one activation of an already-optimized kernel on
    the compiled engine with its sampled OSR sites armed.  Half the ops
    fire one site — a tier-up ([fbase → fopt]) or a deopt ([fopt → fbase])
    — and half run armed without firing, so guard checks and fires both
    show.  Setup builds everything the pipeline would: [fopt], both
    sweeps, compiled programs, and continuations for a seeded sample of
    feasible points in each direction (building all of them would take
    seconds). *)
module Steady = struct
  type kernel = {
    base_prog : Tinyvm.Compile.program;
    opt_prog : Tinyvm.Compile.program;
    up : (site * Osrir.Contfun.t) array;  (** fbase points, continuations into fopt *)
    down : (site * Osrir.Contfun.t) array;  (** fopt points, continuations into fbase *)
    armed_up : E.machine Rt.gsite list;
    armed_down : E.machine Rt.gsite list;
    inputs : (int list * reference * reference) array;  (** args, fbase and fopt oracles *)
  }

  type mode = Armed_base | Armed_opt | Tier_up | Deopt
  type op_spec = { k : int; input : int; mode : mode; site_draw : int; arrival_draw : int }
  type t = { kernels : kernel array; ops : op_spec array }

  let name = "steady"
  let sites_per_direction = 4
  let modes = [| Armed_base; Armed_opt; Tier_up; Deopt |]

  let setup_kernel ~(sample : Random.State.t) ~(draws : Random.State.t) ~(n_inputs : int)
      (e : Corpus.Kernels.entry) : kernel =
    let fbase, _ = Corpus.Dsl.to_fbase e.Corpus.Kernels.kernel in
    let r = P.apply fbase in
    let fwd_ctx, bwd_ctx =
      Ctx.make_pair ~fbase:r.P.fbase ~fopt:r.P.fopt ~mapper:r.P.mapper ()
    in
    let fwd = F.analyze fwd_ctx and bwd = F.analyze bwd_ctx in
    let inputs =
      Array.init n_inputs (fun _ ->
          let args = kernel_args draws e in
          let b = reference r.P.fbase ~args and o = reference r.P.fopt ~args in
          if not (same_observables o.outcome b.outcome) then
            raise
              (Setup_failed (e.Corpus.Kernels.benchmark ^ ": fopt and fbase disagree"));
          (args, b, o))
    in
    let sample_sites summary profiles target =
      let cands = Array.of_list (feasible_sites summary profiles) in
      shuffle sample cands;
      Array.map
        (fun (s : site) -> (s, Osrir.Contfun.generate target ~landing:s.landing s.plan))
        (Array.sub cands 0 (min sites_per_direction (Array.length cands)))
    in
    let profiles pick = Array.to_list (Array.map pick inputs) in
    let up = sample_sites fwd (profiles (fun (_, b, _) -> b.arrivals)) r.P.fopt in
    let down = sample_sites bwd (profiles (fun (_, _, o) -> o.arrivals)) r.P.fbase in
    if Array.length up = 0 || Array.length down = 0 then
      raise (Setup_failed (e.Corpus.Kernels.benchmark ^ ": a direction has no reachable site"));
    let armed sites = Array.to_list (Array.map (fun ((s : site), c) -> armed_site s.point c) sites) in
    {
      base_prog = Tinyvm.Compile.compile r.P.fbase;
      opt_prog = Tinyvm.Compile.compile r.P.fopt;
      up;
      down;
      armed_up = armed up;
      armed_down = armed down;
      inputs;
    }

  let setup ~(quick : bool) ~(seed : int) : t =
    let n_inputs = if quick then 1 else 3 and reps = if quick then 1 else 2 in
    let sample = stream ~seed "steady.sites" and draws = stream ~seed "steady.inputs" in
    let entries = Array.of_list Corpus.Kernels.all in
    let kernels =
      Array.init (Array.length entries) (fun k ->
          setup_kernel ~sample ~draws ~n_inputs entries.(k))
    in
    (* Every kernel runs every mode [reps] times per cycle: exactly half of
       the ops fire. *)
    let per_kernel = Array.length modes * reps in
    let ops =
      Array.init (Array.length kernels * per_kernel) (fun j ->
          let input = Random.State.int draws n_inputs in
          let site_draw = Random.State.bits draws in
          let arrival_draw = Random.State.bits draws in
          let mode = modes.(j mod per_kernel / reps) in
          { k = j / per_kernel; mode; input; site_draw; arrival_draw })
    in
    shuffle (stream ~seed "steady.order") ops;
    { kernels; ops }

  let cycle (t : t) : int = Array.length t.ops
  let window = cycle

  let op (t : t) (tr : Tracer.t) ~(counts : int array) (i : int) : unit -> bool =
    let s = t.ops.(i) in
    let kr = t.kernels.(s.k) in
    let args, base_ref, opt_ref = kr.inputs.(s.input) in
    let firing sites =
      let (site : site), cont = sites.(s.site_draw mod Array.length sites) in
      Some (site.point, cont, arrival s.arrival_draw site)
    in
    let prog, armed, fire, want_steps =
      match s.mode with
      | Armed_base -> (kr.base_prog, kr.armed_up, None, base_ref.outcome.Interp.steps)
      | Armed_opt -> (kr.opt_prog, kr.armed_down, None, opt_ref.outcome.Interp.steps)
      | Tier_up -> (kr.base_prog, kr.armed_up, firing kr.up, -1)
      | Deopt -> (kr.opt_prog, kr.armed_down, firing kr.down, -1)
    in
    let m =
      Tracer.span tr "create" (fun () -> E.of_program ~telemetry:tr.Tracer.sink ~fuel prog ~args)
    in
    let a = activate tr m ~armed ~fire in
    let fired = Option.is_some fire in
    count_activation counts a ~fired;
    fun () ->
      activation_ok a ~fired ~want:base_ref.outcome
      && (want_steps < 0
         || match a.result with Ok o -> o.Interp.steps = want_steps | Error _ -> false)

  let verify (_ : t) = (0, 0, [])
end

(** [debug]: one op is one Section 7 study function through the pipeline
    and the endangered-variable analysis — per-variable backward recovery
    queries at every breakpoint, over small branchy functions, with no
    execution.  The functions are a seeded, size-stratified draw from the
    whole [Corpus.Spec_c] corpus.  The dynamic recovery oracle runs after
    the timed loop, on the first cycle's outputs. *)
module Debug = struct
  module R = Osrir.Reconstruct_ir
  module En = Debuginfo.Endangered

  type op_spec = {
    study : Corpus.Spec_c.study_func;
    args : int list;  (** inputs of the dynamic recovery check *)
    bp_draw : int;  (** seeds the choice of checked breakpoints *)
  }

  type t = {
    ops : op_spec array;
    first : (P.apply_result * En.func_report) option array;  (** first-cycle outputs *)
  }

  let name = "debug"
  let breakpoints_checked = 3

  let windows = 8

  (* The draw is stratified by function size: the corpus, sorted by
     |fbase|, is cut into [n] equal strata and one function is drawn from
     each, so every seed gets nearly the same size mix.  Every function is
     equally likely, which weights each family by its size.  The cycle is
     then cut into [windows] timing windows that each take one stratum of
     every run of [windows] consecutive strata, so each window has the
     cycle's size mix too. *)
  let setup ~(quick : bool) ~(seed : int) : t =
    let population =
      Array.of_list
        (List.concat_map
           (fun (p : Corpus.Spec_c.profile) ->
             List.init p.Corpus.Spec_c.total_scaled (fun i ->
                 let f = Corpus.Spec_c.gen_function p i in
                 (Ir.instr_count f.Corpus.Spec_c.fbase, p.Corpus.Spec_c.bench, i, f)))
           Corpus.Spec_c.profiles)
    in
    Array.stable_sort (fun (a, b, i, _) (a', b', i', _) -> compare (a, b, i) (a', b', i')) population;
    let size = Array.length population in
    let n = if quick then 24 else 256 in
    let draw = stream ~seed "debug.draw" and inputs = stream ~seed "debug.inputs" in
    let strata =
      Array.init n (fun j ->
          let lo = j * size / n and hi = (j + 1) * size / n in
          let _, _, _, study = population.(lo + Random.State.int draw (hi - lo)) in
          let x = Random.State.int inputs 101 - 50 in
          let y = Random.State.int inputs 101 - 50 in
          { study; args = [ x; y ]; bp_draw = Random.State.bits inputs })
    in
    let order = stream ~seed "debug.order" and per_window = n / windows in
    let slots = Array.init per_window (fun _ ->
        let p = Array.init windows Fun.id in
        shuffle order p;
        p)
    in
    let ops =
      Array.concat
        (List.init windows (fun w ->
             let win = Array.init per_window (fun g -> strata.((g * windows) + slots.(g).(w))) in
             shuffle order win;
             win))
    in
    { ops; first = Array.make n None }

  let cycle (t : t) : int = Array.length t.ops
  let window (t : t) : int = Array.length t.ops / windows

  let op (t : t) (tr : Tracer.t) ~(counts : int array) (i : int) : unit -> bool =
    let s = t.ops.(i) in
    let fbase = s.study.Corpus.Spec_c.fbase and dbg = s.study.Corpus.Spec_c.dbg in
    let r = Tracer.span tr "apply" (fun () -> P.apply ~telemetry:tr.Tracer.sink fbase) in
    let rep =
      Tracer.span tr "endangered" (fun () ->
          En.analyze_function ~fbase:r.P.fbase ~fopt:r.P.fopt ~mapper:r.P.mapper
            ~user_vars:dbg.Corpus.Dsl.user_vars ~source_points:dbg.Corpus.Dsl.source_points)
    in
    if Option.is_none t.first.(i) then t.first.(i) <- Some (r, rep);
    count_pipeline counts r;
    List.iter
      (fun (p : En.point_report) ->
        bump counts c_breakpoints 1;
        List.iter
          (fun (v : En.var_status) ->
            if v.En.endangered then begin
              bump counts c_endangered 1;
              if v.En.recoverable_avail then bump counts c_recoverable 1
            end)
          p.En.vars)
      rep.En.points;
    fun () -> true

  exception Mismatch of string

  (* Stop fopt and fbase at corresponding breakpoints (first arrival),
     evaluate each avail recovery plan on the stopped fopt frame, and
     compare with the carrier's value in the fbase frame.  Returns the
     number of recovered values compared. *)
  let check_function (s : op_spec) ((r : P.apply_result), (rep : En.func_report)) : int =
    let bwd = Ctx.make ~fbase:r.P.fbase ~fopt:r.P.fopt ~mapper:r.P.mapper Ctx.Opt_to_base in
    let recoverable (p : En.point_report) =
      List.filter (fun (v : En.var_status) -> v.En.endangered && v.En.recoverable_avail) p.En.vars
    in
    let cands = Array.of_list (List.filter (fun p -> recoverable p <> []) rep.En.points) in
    shuffle (Random.State.make [| s.bp_draw |]) cands;
    let chosen = Array.sub cands 0 (min breakpoints_checked (Array.length cands)) in
    let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch (rep.En.fname ^ ": " ^ m))) fmt in
    let check_var (om : Interp.machine) (bm : Interp.machine) (p : En.point_report) acc
        (v : En.var_status) =
      match
        En.recovery_plan bwd R.Avail ~opt_point:p.En.opt_point ~base_point:p.En.base_point
          v.En.carrier
      with
      | None -> fail "%s claimed recoverable but has no plan" v.En.var
      | Some plan -> (
          match R.eval_plan plan ~src_frame:om.Interp.frame ~memory:om.Interp.memory with
          | Error reg -> fail "plan for %s stuck on %%%s" v.En.var reg
          | Ok env -> (
              match
                (Hashtbl.find_opt env v.En.carrier, Hashtbl.find_opt bm.Interp.frame v.En.carrier)
              with
              | Some got, Some want ->
                  if got <> want then
                    fail "recovered %s = %d but fbase has %d at point %d" v.En.var got want
                      p.En.base_point;
                  acc + 1
              | _, None -> acc (* not yet defined on this input *)
              | None, Some _ -> fail "plan did not bind %s" v.En.carrier))
    in
    Array.fold_left
      (fun acc (p : En.point_report) ->
        let om = Interp.create ~fuel r.P.fopt ~args:s.args in
        let bm = Interp.create ~fuel r.P.fbase ~args:s.args in
        match
          ( Interp.run_to_point om ~point:p.En.opt_point,
            Interp.run_to_point bm ~point:p.En.base_point )
        with
        | Some om, Some bm -> List.fold_left (check_var om bm p) acc (recoverable p)
        | _ -> acc (* breakpoint not reached on this input *))
      0 chosen

  let verify (t : t) : int * int * string list =
    let failed = ref 0 and checked = ref 0 and notes = ref [] in
    Array.iteri
      (fun i out ->
        match out with
        | None -> ()
        | Some out -> (
            match check_function t.ops.(i) out with
            | n -> checked := !checked + n
            | exception Mismatch m ->
                incr failed;
                notes := m :: !notes))
      t.first;
    (!failed, !checked, List.rev !notes)
end
