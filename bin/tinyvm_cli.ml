(** The TinyVM command-line interface: inspect, optimize, run, and OSR the
    corpus kernels or IR files — the workflow of the paper's TinyVM
    artifact (Section 6.1).

    {v
      tinyvm list
      tinyvm show bzip2 --opt
      tinyvm run bzip2 -a 48 -a 12345 --opt
      tinyvm opt file.ir
      tinyvm osr-points bzip2 --backward
      tinyvm osr-run bzip2 --at 31 --arrival 2
      tinyvm debug-study sjeng
    v} *)

module Ir = Miniir.Ir
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility
module R = Osrir.Reconstruct_ir
module Interp = Tinyvm.Interp

open Cmdliner

let kernel_conv : Corpus.Kernels.entry Arg.conv =
  let parse s =
    match Corpus.Kernels.find s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown benchmark %S (try: %s)" s
               (String.concat ", "
                  (List.map (fun (e : Corpus.Kernels.entry) -> e.benchmark) Corpus.Kernels.all))))
  in
  let print ppf (e : Corpus.Kernels.entry) = Format.pp_print_string ppf e.benchmark in
  Arg.conv (parse, print)

let bench_arg = Arg.(required & pos 0 (some kernel_conv) None & info [] ~docv:"BENCHMARK")

let opt_flag =
  Arg.(value & flag & info [ "opt" ] ~doc:"Operate on the optimized version (fopt).")

let backward_flag =
  Arg.(
    value & flag
    & info [ "backward" ] ~doc:"Deoptimization direction (fopt → fbase) instead of forward.")

let args_opt =
  Arg.(
    value & opt_all int []
    & info [ "a"; "arg" ] ~docv:"N" ~doc:"Function argument (repeatable; default: the kernel's)")

(* --- engine selection (run / osr-run) -------------------------------- *)

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("compiled", `Compiled); ("ref", `Ref) ]) `Compiled
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: $(b,compiled) (slot-register bytecode, the default) or $(b,ref) \
           (the tree-walking reference interpreter).")

let engine_mod : [ `Compiled | `Ref ] -> (module Tinyvm.Engine.S) = function
  | `Compiled -> (module Tinyvm.Engine.Compiled)
  | `Ref -> (module Tinyvm.Engine.Reference)

(* --- robustness flags and typed-error exits --------------------------- *)

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Step budget for the VM; exhaustion terminates with a fuel-exhausted error (exit \
           code 14) instead of looping forever.")

(* One-line diagnostic + the error's documented exit code — never an OCaml
   backtrace. *)
let die (e : Tinyvm.Osr_error.t) : 'a =
  Printf.eprintf "tinyvm: %s\n" (Tinyvm.Osr_error.to_string e);
  exit (Tinyvm.Osr_error.exit_code e)

let guarded (f : unit -> unit) : unit =
  try f () with Tinyvm.Osr_error.Error e -> die e

(* --- telemetry flags, shared by the working commands ------------------ *)

type telem_opts = {
  stats : bool;
  remarks : string option;  (** [Some ""] = every pass, [Some p] = only pass [p] *)
  time_passes : bool;
  trace_out : string option;
}

let telem_term : telem_opts Term.t =
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print the statistics counters (the LLVM -stats analogue).")
  in
  let remarks =
    Arg.(
      value
      & opt ~vopt:(Some "") (some string) None
      & info [ "remarks" ] ~docv:"PASS"
          ~doc:
            "Print optimization remarks, optionally only those of $(docv) (e.g. \
             --remarks=LICM).")
  in
  let time_passes =
    Arg.(
      value & flag
      & info [ "time-passes" ] ~doc:"Print the per-span timing table (-time-passes analogue).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write a Chrome-trace JSON of all spans to $(docv) (load in chrome://tracing).")
  in
  let combine stats remarks time_passes trace_out = { stats; remarks; time_passes; trace_out } in
  Term.(const combine $ stats $ remarks $ time_passes $ trace_out)

(** Run [f] with a sink (live only when some telemetry output was asked
    for), then emit the requested reports. *)
let with_telemetry (o : telem_opts) (f : Telemetry.sink -> unit) : unit =
  let live = o.stats || o.remarks <> None || o.time_passes || o.trace_out <> None in
  let sink = if live then Telemetry.create () else Telemetry.null in
  Telemetry.reset_counters ();
  f sink;
  if o.time_passes then
    print_string
      (Report.table ~title:"Span timings (wall clock)"
         ~header:[ "span"; "count"; "total (ms)"; "self (ms)" ]
         (Telemetry.timing_rows sink));
  (match o.remarks with
  | None -> ()
  | Some filter ->
      let pass = if filter = "" then None else Some filter in
      List.iter
        (fun r -> print_endline (Telemetry.remark_to_string r))
        (Telemetry.remarks ?pass sink));
  if o.stats then
    print_string
      (Report.table ~title:"Statistics counters" ~header:[ "counter"; "value"; "description" ]
         (Telemetry.counter_rows ()));
  Option.iter
    (fun path ->
      Telemetry.write_chrome_trace sink path;
      Printf.printf "wrote %s (%d events)\n" path (List.length (Telemetry.trace_events sink)))
    o.trace_out

let prepare ?telemetry (e : Corpus.Kernels.entry) =
  let fbase, dbg = Corpus.Dsl.to_fbase e.kernel in
  (P.apply ?telemetry fbase, dbg)

(* --- list ----------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Corpus.Kernels.entry) ->
        let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
        Printf.printf "%-12s %-22s %-14s |fbase|=%4d  args: %s\n" e.benchmark e.kernel.kname
          e.suite (Ir.instr_count fbase)
          (String.concat " " (List.map string_of_int e.default_args)))
      Corpus.Kernels.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark kernels.") Term.(const run $ const ())

(* --- show ----------------------------------------------------------- *)

let show_cmd =
  let run entry opt =
    let r, _ = prepare entry in
    print_string (Ir.func_to_string (if opt then r.P.fopt else r.P.fbase))
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a kernel's IR (fbase, or fopt with --opt).")
    Term.(const run $ bench_arg $ opt_flag)

(* --- run ------------------------------------------------------------ *)

let run_cmd =
  let run (entry : Corpus.Kernels.entry) opt args fuel engine telem =
    guarded @@ fun () ->
    with_telemetry telem @@ fun sink ->
    let (module E : Tinyvm.Engine.S) = engine_mod engine in
    let r, _ = prepare ~telemetry:sink entry in
    let f = if opt then r.P.fopt else r.P.fbase in
    let args = if args = [] then entry.default_args else args in
    match
      Telemetry.with_span sink ~cat:"vm" "interp" (fun () ->
          E.run ?fuel ~telemetry:sink f ~args)
    with
    | Ok o ->
        Printf.printf "ret %d  (%d steps, %d observable events)\n" o.ret o.steps
          (List.length o.events);
        List.iter
          (fun (ev : Interp.event) ->
            Printf.printf "  @%s(%s)\n" ev.callee
              (String.concat ", " (List.map string_of_int ev.arg_values)))
          o.events
    | Error (Interp.Fuel_exhausted steps) ->
        die (Tinyvm.Osr_error.Fuel_exhausted { func = f.Ir.fname; steps })
    | Error t -> Fmt.pr "trap: %a@." Interp.pp_trap t
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a kernel in the TinyVM.")
    Term.(
      const run $ bench_arg $ opt_flag $ args_opt $ fuel_arg $ engine_arg $ telem_term)

(* --- opt (file) ------------------------------------------------------ *)

(* Exit code of [opt] on input that does not parse or verify. *)
let malformed_ir = 19

let opt_cmd =
  let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.ir") in
  let run path telem =
    with_telemetry telem @@ fun sink ->
    let src = In_channel.with_open_text path In_channel.input_all in
    let reject fmt =
      Printf.ksprintf
        (fun m ->
          Printf.eprintf "tinyvm: %s\n" m;
          exit malformed_ir)
        fmt
    in
    let f =
      try Miniir.Ir_parser.parse_func src
      with Miniir.Ir_parser.Parse_error (msg, line) -> reject "%s:%d: %s" path line msg
    in
    (match Miniir.Verifier.verify f with
    | Ok () -> ()
    | Error es -> reject "%s: @%s: %s" path f.fname (Fmt.str "%a" Miniir.Verifier.pp_error (List.hd es)));
    let r = P.apply ~telemetry:sink f in
    print_string (Ir.func_to_string r.P.fopt);
    Printf.printf "; actions: %d\n"
      (List.length (Passes.Code_mapper.actions_in_order r.P.mapper))
  in
  Cmd.v
    (Cmd.info "opt"
       ~doc:
         "Parse an IR file, run the optimization pipeline, print the result.  Malformed input \
          (a parse error or an SSA violation) exits with code 19 and one line naming the file \
          and the line or the first verifier error.")
    Term.(const run $ file_arg $ telem_term)

(* --- osr-points ------------------------------------------------------ *)

let osr_points_cmd =
  let run (entry : Corpus.Kernels.entry) backward telem =
    with_telemetry telem @@ fun sink ->
    let r, _ = prepare ~telemetry:sink entry in
    let dir = if backward then Ctx.Opt_to_base else Ctx.Base_to_opt in
    let ctx = Ctx.make ~fbase:r.P.fbase ~fopt:r.P.fopt ~mapper:r.P.mapper dir in
    let s = F.analyze ~telemetry:sink ctx in
    Printf.printf "%s, %s: %d points — %d with empty c, %d live-feasible, %d avail-feasible\n"
      entry.benchmark
      (if backward then "fopt → fbase" else "fbase → fopt")
      s.total_points s.empty s.live_ok s.avail_ok;
    List.iter
      (fun (rep : F.point_report) ->
        let status =
          match rep.classification with
          | F.Empty -> "empty"
          | F.With_live p -> Printf.sprintf "live |c|=%d" (R.comp_size p)
          | F.With_avail p ->
              Printf.sprintf "avail |c|=%d keep=%d" (R.comp_size p) (List.length p.keep)
          | F.Infeasible -> "infeasible"
        in
        Printf.printf "  #%-4d -> %-6s %s\n" rep.point
          (match rep.landing with Some l -> "#" ^ string_of_int l | None -> "-")
          status)
      s.reports
  in
  Cmd.v
    (Cmd.info "osr-points" ~doc:"Per-point OSR feasibility for a kernel.")
    Term.(const run $ bench_arg $ backward_flag $ telem_term)

(* --- osr-run --------------------------------------------------------- *)

let osr_run_cmd =
  let at_arg =
    Arg.(
      required & opt (some int) None
      & info [ "at" ] ~docv:"ID" ~doc:"Source instruction id where the transition fires.")
  in
  let arrival_arg =
    Arg.(
      value & opt int 0
      & info [ "arrival" ] ~docv:"K" ~doc:"Fire on the K-th dynamic arrival (default 0).")
  in
  let inject_arg =
    let kinds =
      List.map (fun k -> (Osrir.Fault.kind_to_string k, k)) Osrir.Fault.all_kinds
    in
    Arg.(
      value
      & opt (some (enum kinds)) None
      & info [ "inject" ] ~docv:"KIND"
          ~doc:
            "Deterministically inject one fault kind at the transition: $(b,misfire), \
             $(b,suppress), $(b,guard-trap), $(b,chi-trap), $(b,poison) or $(b,fuel-cut).  \
             The run reports the typed abort and exits with its code.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "inject-faults" ] ~docv:"SEED"
          ~doc:
            "Seed-driven random fault injection behind the runtime hooks (the fuzzing \
             mode); every decision replays deterministically for a given $(docv).")
  in
  let run (entry : Corpus.Kernels.entry) backward args at arrival fuel inject seed engine telem =
    guarded @@ fun () ->
    with_telemetry telem @@ fun sink ->
    let (module E : Tinyvm.Engine.S) = engine_mod engine in
    let module Rt = Osrir.Osr_runtime.Make (E) in
    let r, _ = prepare ~telemetry:sink entry in
    let args = if args = [] then entry.default_args else args in
    let src, target, dir =
      if backward then (r.P.fopt, r.P.fbase, Ctx.Opt_to_base)
      else (r.P.fbase, r.P.fopt, Ctx.Base_to_opt)
    in
    let hooks =
      match (inject, seed) with
      | Some k, s -> Osrir.Fault.hooks ~only:k (Osrir.Fault.make ~seed:(Option.value s ~default:0))
      | None, Some s -> Osrir.Fault.hooks (Osrir.Fault.make ~seed:s)
      | None, None -> Osrir.Osr_runtime.no_hooks
    in
    let ctx = Ctx.make ~fbase:r.P.fbase ~fopt:r.P.fopt ~mapper:r.P.mapper dir in
    (* The full sweep classifies every point (and feeds the reconstruct
       counters); the chosen point's avail plan is then looked up in it. *)
    let s = F.analyze ~telemetry:sink ctx in
    match List.find_opt (fun (rep : F.point_report) -> rep.point = at) s.reports with
    | None -> die (Tinyvm.Osr_error.No_such_point { func = src.Ir.fname; point = at })
    | Some { landing = None; _ } ->
        die
          (Tinyvm.Osr_error.Reconstruct_failed
             { func = src.Ir.fname; at; what = "no landing correspondence" })
    | Some { landing = Some landing; avail_plan = None; _ } ->
        die
          (Tinyvm.Osr_error.Reconstruct_failed
             {
               func = src.Ir.fname;
               at;
               what =
                 Printf.sprintf "reconstruction fails (landing #%d); run with --remarks for why"
                   landing;
             })
    | Some { landing = Some landing; avail_plan = Some plan; _ } -> (
        Printf.printf "transition #%d -> #%d: %d transfers, |c|=%d, keep={%s}\n" at landing
          (List.length plan.transfers) (R.comp_size plan)
          (String.concat ", " plan.keep);
        let reference = E.run ?fuel src ~args in
        let result, osr =
          Rt.run_transition_full ?fuel ~hooks ~telemetry:sink ~arrival ~src ~args ~at
            ~target ~landing plan
        in
        Fmt.pr "reference : %a@." Interp.pp_result reference;
        Fmt.pr "with OSR  : %a@." Interp.pp_result result;
        (match osr.Osrir.Osr_runtime.transition with
        | Some t ->
            Printf.printf "transition committed at #%d (|entry comp| = %d)\n" t.fired_at
              t.comp_entry_instrs
        | None -> print_endline "no transition committed");
        Fmt.pr "observably equal: %b@." (Interp.equal_result reference result);
        (* Error paths exit with the first error's documented code, after a
           one-line diagnostic per abort. *)
        List.iter
          (fun (a : Osrir.Osr_runtime.abort) ->
            Printf.eprintf "tinyvm: %s\n" (Tinyvm.Osr_error.to_string a.reason))
          osr.aborted;
        match (osr.aborted, result) with
        | a :: _, _ -> exit (Tinyvm.Osr_error.exit_code a.Osrir.Osr_runtime.reason)
        | [], Error (Interp.Fuel_exhausted steps) ->
            die (Tinyvm.Osr_error.Fuel_exhausted { func = src.Ir.fname; steps })
        | [], _ -> ())
  in
  Cmd.v
    (Cmd.info "osr-run" ~doc:"Run a kernel, firing an OSR transition at a chosen point.")
    Term.(
      const run $ bench_arg $ backward_flag $ args_opt $ at_arg $ arrival_arg $ fuel_arg
      $ inject_arg $ seed_arg $ engine_arg $ telem_term)

(* --- debug-study ------------------------------------------------------ *)

let study_conv : Corpus.Spec_c.profile Arg.conv =
  let parse s =
    match Corpus.Spec_c.find s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown study benchmark %S (try: %s)" s
               (String.concat ", "
                  (List.map (fun (p : Corpus.Spec_c.profile) -> p.bench) Corpus.Spec_c.profiles))))
  in
  let print ppf (p : Corpus.Spec_c.profile) = Format.pp_print_string ppf p.bench in
  Arg.conv (parse, print)

let debug_study_cmd =
  let study_arg = Arg.(required & pos 0 (some study_conv) None & info [] ~docv:"BENCHMARK") in
  let run (prof : Corpus.Spec_c.profile) =
    List.iteri
      (fun k (sf : Corpus.Spec_c.study_func) ->
        let r = P.apply sf.fbase in
        let rep =
          Debuginfo.Endangered.analyze_function ~fbase:r.P.fbase ~fopt:r.P.fopt
            ~mapper:r.P.mapper ~user_vars:sf.dbg.user_vars
            ~source_points:sf.dbg.source_points
        in
        let show which =
          match Debuginfo.Endangered.recoverability rep which with
          | Some x -> Printf.sprintf "%.2f" x
          | None -> "-"
        in
        Printf.printf
          "fn%03d |fbase|=%4d points=%3d affected=%.2f recover(live)=%s recover(avail)=%s keep=%d\n"
          k rep.base_size (List.length rep.points)
          (Debuginfo.Endangered.affected_fraction rep)
          (show `Live) (show `Avail)
          (List.length (Debuginfo.Endangered.keep_set rep)))
      (Corpus.Spec_c.functions_of prof)
  in
  Cmd.v
    (Cmd.info "debug-study" ~doc:"Section 7 endangered-variable study for one benchmark group.")
    Term.(const run $ study_arg)

let () =
  let doc = "TinyVM: MiniIR optimizer, interpreter and OSR playground" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "tinyvm" ~doc)
          [ list_cmd; show_cmd; run_cmd; opt_cmd; osr_points_cmd; osr_run_cmd; debug_study_cmd ]))
