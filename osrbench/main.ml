(** The end-to-end, layer-by-layer OSR benchmark.

    {v main.exe --workload tierup|steady|debug --seed N --seconds S --trace 0|1 v}

    Sets up the workload's seeded inputs five times ([setup_s] is the
    median), replays its cycle of ops until [S] seconds have passed, checks
    every op against the reference oracle outside the timed region, and
    prints one JSON result line last.  [--trace 0] reports the end-to-end
    metrics.  [--trace 1] alternates untraced and traced cycles, reports
    the per-layer metrics, and writes a Chrome trace and a per-layer table
    next to the run record in [--out-dir].  [--quick] runs two cycles of a
    smaller op stream.  The exit code is 1 on any failed op, oracle
    mismatch, count that differs between cycles, or artifact that does not
    round-trip. *)

module J = Telemetry.Json

let workloads : (module Workload.S) list =
  [ (module Workloads.Tierup); (module Workloads.Steady); (module Workloads.Debug) ]

let now = Unix.gettimeofday

(* Per-op wall times. *)
type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 4096 0.; n = 0 }

let push (s : samples) (x : float) : unit =
  if s.n = Array.length s.data then begin
    let d = Array.make (2 * s.n) 0. in
    Array.blit s.data 0 d 0 s.n;
    s.data <- d
  end;
  s.data.(s.n) <- x;
  s.n <- s.n + 1

let total (s : samples) : float =
  let t = ref 0. in
  for i = 0 to s.n - 1 do
    t := !t +. s.data.(i)
  done;
  !t

(* The sample at rank ceil(q (n-1)) of a sorted array.  [tierup]'s
   latencies come in one block per kernel, and its median rank falls on a
   block boundary: this estimator never averages across one. *)
let quantile (a : float array) (q : float) : float =
  let n = Array.length a in
  if n = 0 then 0. else a.(min (n - 1) (int_of_float (Float.ceil (q *. float_of_int (n - 1)))))

let ratio (a : float) (b : float) : float = if b = 0. then 0. else a /. b

type run = {
  plain : samples;  (** untraced op walls *)
  traced : samples;
  attempted : int;
  failed : int;
  cycles : int;
  traced_cycles : int;
  counts : int array;  (** the first cycle's *)
  counts_repeat : bool;
  plain_windows : (float * int * float array) list;
      (** untraced timing windows: op wall, completed ops, op walls *)
  agg : Tracer.agg;
  first_trace : Tracer.t option;
  notes : string list;
}

let run_cycles ~(cycle : int) ~(window : int) ~(op : Tracer.t -> counts:int array -> int -> unit -> bool)
    ~(seconds : float) ~(trace : bool) ~(quick : bool) : run =
  let plain = samples () and traced = samples () in
  let attempted = ref 0 and failed = ref 0 and notes = ref [] in
  let note m = if List.length !notes < 20 then notes := m :: !notes in
  let first_counts = ref None and repeat = ref true in
  let agg = Hashtbl.create 64 and first_trace = ref None in
  let cycles = ref 0 and traced_cycles = ref 0 and plain_windows = ref [] in
  Telemetry.reset_counters ();
  let start = now () in
  while if quick then !cycles < 2 else !cycles < 2 || now () -. start < seconds do
    let tracing = trace && !cycles mod 2 = 1 in
    let tr = if tracing then Tracer.create () else Tracer.off in
    let lat = if tracing then traced else plain in
    let counts = Array.make (Array.length Workload.count_names) 0 in
    let wall = ref 0. and completed = ref 0 and walls = Array.make window 0. in
    for i = 0 to cycle - 1 do
      incr attempted;
      let t0 = now () in
      let check =
        match op tr ~counts i with
        | check -> check
        | exception e ->
            note (Printf.sprintf "op %d raised %s" i (Printexc.to_string e));
            fun () -> false
      in
      let dt = now () -. t0 in
      push lat dt;
      wall := !wall +. dt;
      walls.(i mod window) <- dt;
      let ok =
        match check () with
        | ok -> ok
        | exception e ->
            note (Printf.sprintf "oracle of op %d raised %s" i (Printexc.to_string e));
            false
      in
      if ok then incr completed
      else begin
        incr failed;
        note (Printf.sprintf "op %d of cycle %d failed its oracle" i !cycles)
      end;
      if (i + 1) mod window = 0 then begin
        if not tracing then plain_windows := (!wall, !completed, Array.copy walls) :: !plain_windows;
        wall := 0.;
        completed := 0
      end
    done;
    (match !first_counts with
    | None -> first_counts := Some counts
    | Some c ->
        if c <> counts then begin
          repeat := false;
          note (Printf.sprintf "cycle %d counts differ from cycle 0" !cycles)
        end);
    if tracing then begin
      Tracer.absorb agg tr;
      incr traced_cycles;
      if Option.is_none !first_trace then first_trace := Some tr
    end;
    incr cycles
  done;
  {
    plain;
    traced;
    attempted = !attempted;
    failed = !failed;
    cycles = !cycles;
    traced_cycles = !traced_cycles;
    counts = Option.get !first_counts;
    counts_repeat = !repeat;
    plain_windows = List.rev !plain_windows;
    agg;
    first_trace = !first_trace;
    notes = List.rev !notes;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let peak_heap_mb () : float =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let median (xs : float list) : float = quantile (Array.of_list (List.sort Float.compare xs)) 0.5

(* On a shared machine, memory traffic from other tenants slows whole
   stretches of a run, by up to 1.7x for seconds at a time, while
   undisturbed windows take a steady time.  The end-to-end figures are
   taken over the fastest quarter of the untraced timing windows (at least one),
   which such load leaves alone unless it covers the whole run. *)
let end_to_end ~(setup_s : float) (r : run) : (string * float * string) list * int =
  let by_wall = List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) r.plain_windows in
  let fast = List.filteri (fun i _ -> i = 0 || 4 * i < List.length by_wall) by_wall in
  let wall = List.fold_left (fun acc (w, _, _) -> acc +. w) 0. fast in
  let completed = List.fold_left (fun acc (_, c, _) -> acc + c) 0 fast in
  let a = Array.concat (List.map (fun (_, _, ws) -> ws) fast) in
  Array.sort Float.compare a;
  ( [
    ("setup_s", setup_s, "s");
    ("ops_per_s", ratio (float_of_int completed) wall, "1/s");
    ("op_ms_p50", 1000. *. quantile a 0.5, "ms");
    ("op_ms_p90", 1000. *. quantile a 0.9, "ms");
    ("ok_ratio", ratio (float_of_int (r.attempted - r.failed)) (float_of_int r.attempted), "ratio");
    ("peak_heap_mb", peak_heap_mb (), "MB");
  ],
    Array.length a )

let exec_spans = [ "create"; "run_osr"; "run_armed"; "run_to_point"; "run_machine" ]
let osrir_spans = [ "ctx"; "sweep_fwd"; "sweep_bwd"; "contfun"; "fire" ]
let pass_names = [ "CP"; "SCCP"; "CSE"; "LC"; "LCSSA"; "LICM"; "Sink"; "ADCE" ]

(** Per-layer metrics of the traced cycles: times per op, exact counts per
    cycle, allocation in millions of minor words per op. *)
let per_layer (r : run) : (string * float * string) list =
  let row = Tracer.row r.agg in
  let ops = float_of_int (max 1 r.traced.n) and cyc = float_of_int (max 1 r.traced_cycles) in
  let ms_per_op name = 1000. *. (row name).Tracer.total /. ops in
  let sum f names = List.fold_left (fun acc n -> acc +. f (row n)) 0. names in
  let mw names = sum (fun x -> x.Tracer.words) names /. ops /. 1e6 in
  let count i = float_of_int r.counts.(i) in
  let exec_s = sum (fun x -> x.Tracer.self) exec_spans in
  let fire = row "fire" and verify = row "verify" in
  let rolled = float_of_int Passes.Pass_manager.stat_rolled_back.Telemetry.value in
  let mean s = ratio (total s) (float_of_int s.n) in
  let open Workload in
  [ ("corpus.to_fbase_ms", ms_per_op "to_fbase", "ms/op");
    ("corpus.fbase_instrs", count c_fbase, "count/cycle");
    ("passes.apply_ms", ms_per_op "apply", "ms/op") ]
  @ List.map (fun p -> ("passes." ^ p ^ "_ms", ms_per_op p, "ms/op")) pass_names
  @ [
      ("passes.verify_ms", ms_per_op "verify", "ms/op");
      ("passes.verify_calls", float_of_int verify.Tracer.calls /. cyc, "count/cycle");
      ("passes.sandbox_ms", 1000. *. (row "apply").Tracer.self /. ops, "ms/op");
      ("passes.rolled_back", rolled /. cyc, "count/cycle");
      ("passes.mapper_actions", count c_actions, "count/cycle");
      ("passes.fopt_instrs", count c_fopt, "count/cycle");
      ("passes.alloc_mw", mw [ "apply" ], "Mw/op");
      ("osrir.ctx_ms", ms_per_op "ctx", "ms/op");
      ("osrir.sweep_fwd_ms", ms_per_op "sweep_fwd", "ms/op");
      ("osrir.sweep_bwd_ms", ms_per_op "sweep_bwd", "ms/op");
      ("osrir.points", count c_points, "count/cycle");
      ("osrir.live_ratio", ratio (count c_live) (count c_points), "ratio");
      ("osrir.avail_ratio", ratio (count c_avail) (count c_points), "ratio");
      ("osrir.contfun_ms", ms_per_op "contfun", "ms/op");
      ("osrir.contfun_instrs", count c_contfun, "count/cycle");
      ("osrir.fire_us", 1e6 *. ratio fire.Tracer.self (float_of_int fire.Tracer.calls), "us/fire");
      ("osrir.fire_committed", count c_committed, "count/cycle");
      ("osrir.fire_aborted", count c_aborted, "count/cycle");
      ("osrir.commit_ratio", ratio (count c_committed) (count c_fires), "ratio");
      ("osrir.alloc_mw", mw osrir_spans, "Mw/op");
      ("tinyvm.compile_us", 1e6 *. (row "compile").Tracer.total /. ops, "us/op");
      ("tinyvm.exec_ms", 1000. *. exec_s /. ops, "ms/op");
      ("tinyvm.steps", count c_steps, "count/cycle");
      ("tinyvm.msteps_per_s", ratio (count c_steps *. cyc) exec_s /. 1e6, "Msteps/s");
      ("tinyvm.alloc_mw", mw exec_spans, "Mw/op");
      ("debuginfo.endangered_ms", ms_per_op "endangered", "ms/op");
      ("debuginfo.breakpoints", count c_breakpoints, "count/cycle");
      ("debuginfo.endangered_vars", count c_endangered, "count/cycle");
      ("debuginfo.recoverable_ratio", ratio (count c_recoverable) (count c_endangered), "ratio");
      ("debuginfo.alloc_mw", mw [ "endangered" ], "Mw/op");
      ("trace.overhead_pct", 100. *. (ratio (mean r.traced) (mean r.plain) -. 1.), "%");
    ]

(** The per-layer table of the traced cycles: self time, calls and minor
    words per span and per layer, and how much of the traced op wall the
    spans account for. *)
let layer_table (r : run) : J.t * string =
  let ops = float_of_int (max 1 r.traced.n) in
  let wall = total r.traced in
  let names = Tracer.names r.agg in
  let row = Tracer.row r.agg in
  let in_layer l = List.filter (fun n -> Tracer.layer_of n = l) names in
  let self_of ns = List.fold_left (fun acc n -> acc +. (row n).Tracer.self) 0. ns in
  let words_of ns = List.fold_left (fun acc n -> acc +. (row n).Tracer.words) 0. ns in
  let covered = self_of names in
  let layers =
    List.map (fun l -> (l, self_of (in_layer l), words_of (in_layer l))) Tracer.layers
  in
  let dominant, _, _ =
    List.fold_left (fun ((_, best, _) as acc) ((_, s, _) as x) -> if s > best then x else acc)
      ("none", 0., 0.) layers
  in
  let json =
    J.Obj
      [
        ("traced_ops", Jsonw.int r.traced.n);
        ("traced_cycles", Jsonw.int r.traced_cycles);
        ("op_wall_ms_per_op", J.Num (1000. *. wall /. ops));
        ("coverage_pct", J.Num (100. *. ratio covered wall));
        ("dominant_layer", J.Str dominant);
        ( "layers",
          J.Arr
            (List.map
               (fun (l, s, w) ->
                 J.Obj
                   [
                     ("layer", J.Str l);
                     ("self_ms_per_op", J.Num (1000. *. s /. ops));
                     ("share_pct", J.Num (100. *. ratio s wall));
                     ("minor_words_per_op", J.Num (w /. ops));
                   ])
               layers) );
        ( "spans",
          J.Arr
            (List.map
               (fun n ->
                 let x = row n in
                 J.Obj
                   [
                     ("name", J.Str n);
                     ("layer", J.Str (Tracer.layer_of n));
                     ("calls", Jsonw.int x.Tracer.calls);
                     ("self_ms", J.Num (1000. *. x.Tracer.self));
                     ("total_ms", J.Num (1000. *. x.Tracer.total));
                     ("minor_words", J.Num x.Tracer.words);
                   ])
               names) );
      ]
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-14s %12s %8s %14s\n" "span" "self ms/op" "calls" "minor w/op";
  List.iter
    (fun n ->
      let x = row n in
      Printf.bprintf b "%-14s %12.4f %8d %14.0f\n" n (1000. *. x.Tracer.self /. ops) x.Tracer.calls
        (x.Tracer.words /. ops))
    names;
  List.iter
    (fun (l, s, _) ->
      if s > 0. then Printf.bprintf b "layer %-9s %10.4f ms/op %5.1f%%\n" l (1000. *. s /. ops)
          (100. *. ratio s wall))
    layers;
  Printf.bprintf b "spans cover %.1f%% of the traced op wall (%.4f ms/op); dominant layer: %s\n"
    (100. *. ratio covered wall) (1000. *. wall /. ops) dominant;
  (json, Buffer.contents b)

(* The Chrome trace of the first traced cycle, read back and checked. *)
let chrome_trace_roundtrip (tr : Tracer.t) (path : string) : bool =
  Telemetry.write_chrome_trace tr.Tracer.sink path;
  match J.parse (Jsonw.read_file path) with
  | Ok doc -> (
      match J.member "traceEvents" doc with
      | Some (J.Arr evs) -> List.length evs = List.length (Telemetry.trace_events tr.Tracer.sink)
      | _ -> false)
  | Error _ -> false

let metrics_json (ms : (string * float * string) list) : J.t =
  J.Obj (List.map (fun (n, v, u) -> (n, J.Obj [ ("value", J.Num v); ("unit", J.Str u) ])) ms)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run (module W : Workload.S) ~(seed : int) ~(seconds : float) ~(trace : bool) ~(quick : bool)
    ~(env : J.t) ~(out_dir : string) : int =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let stem = Printf.sprintf "%s/%s-seed%d" out_dir W.name seed in
  let setup_times = ref [] and state = ref None in
  (try
     for _ = 1 to if quick then 1 else 5 do
       state := None;
       Gc.compact ();
       let t0 = now () in
       let t = W.setup ~quick ~seed in
       setup_times := (now () -. t0) :: !setup_times;
       state := Some t
     done
   with Workload.Setup_failed m ->
     prerr_endline ("osrbench: setup failed: " ^ m);
     exit 1);
  let t = Option.get !state in
  let setup_s = median !setup_times in
  Gc.compact ();
  let r = run_cycles ~cycle:(W.cycle t) ~window:(W.window t) ~op:(W.op t) ~seconds ~trace ~quick in
  let late_failed, checked, late_notes = W.verify t in
  let failed = r.failed + late_failed in
  let metrics, samples =
    if trace then (per_layer r, r.traced.n) else end_to_end ~setup_s r
  in
  let traced_ok, table_text =
    match (trace, r.first_trace) with
    | true, Some tr ->
        let json, text = layer_table r in
        let ok_table = Jsonw.write_checked (stem ^ ".layers.json") json in
        let ok_chrome = chrome_trace_roundtrip tr (stem ^ ".trace.json") in
        (ok_table && ok_chrome, text)
    | _ -> (true, "")
  in
  let record =
    J.Obj
      [
        ("workload", J.Str W.name);
        ("seed", Jsonw.int seed);
        ("seconds", J.Num seconds);
        ("trace", J.Bool trace);
        ("quick", J.Bool quick);
        ("env", env);
        ("setup_s_samples", J.Arr (List.rev_map (fun x -> J.Num x) !setup_times));
        ("cycle_ops", Jsonw.int (W.cycle t));
        ("cycles", Jsonw.int r.cycles);
        ("attempted", Jsonw.int r.attempted);
        ("failed", Jsonw.int failed);
        ("op_samples", Jsonw.int samples);
        ( "counts_per_cycle",
          J.Obj (Array.to_list (Array.mapi (fun i n -> (n, Jsonw.int r.counts.(i))) Workload.count_names)) );
        ("counts_repeat", J.Bool r.counts_repeat);
        ("window_walls_s", J.Arr (List.map (fun (w, _, _) -> J.Num w) r.plain_windows));
        ("recoveries_checked", Jsonw.int checked);
        ("metrics", metrics_json metrics);
        ("notes", J.Arr (List.map (fun s -> J.Str s) (r.notes @ late_notes)));
      ]
  in
  let record_ok =
    Jsonw.write_checked (Printf.sprintf "%s-trace%d.json" stem (Bool.to_int trace)) record
  in
  let correct = failed = 0 && r.counts_repeat && traced_ok && record_ok in
  Printf.printf "osrbench %s seed=%d trace=%b: setup %.4f s (median of %d); %d cycles x %d ops = %d ops, %d failed; per-cycle counts repeat: %b\n"
    W.name seed trace setup_s (List.length !setup_times) r.cycles (W.cycle t) r.attempted failed
    r.counts_repeat;
  Printf.printf "counts/cycle: %s\n"
    (String.concat " "
       (Array.to_list
          (Array.mapi (fun i n -> Printf.sprintf "%s=%d" n r.counts.(i)) Workload.count_names)));
  print_string table_text;
  List.iter (fun n -> prerr_endline ("osrbench: " ^ n)) (r.notes @ late_notes);
  if not traced_ok then prerr_endline "osrbench: a trace artifact did not round-trip";
  if not record_ok then prerr_endline "osrbench: the run record did not round-trip";
  print_endline
    (Jsonw.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", Jsonw.int r.attempted);
            ("failed", Jsonw.int failed);
            ("metrics", metrics_json metrics);
          ]));
  if correct then 0 else 1

let () =
  (* A larger minor heap: fewer collections inside the timed ops. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let quick = ref false and commit = ref "unknown" and profile = ref "unknown" in
  let cores = ref 0 and out_dir = ref ".bench_out" in
  let usage = "main.exe --workload tierup|steady|debug --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME tierup, steady or debug");
      ("--seed", Arg.Set_int seed, "N seed of every generated input");
      ("--seconds", Arg.Set_float seconds, "S timed seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--quick", Arg.Set quick, " two cycles of a small op stream (self-check)");
      ("--commit", Arg.Set_string commit, "ID source revision, recorded in the run record");
      ("--profile", Arg.Set_string profile, "NAME build profile, recorded in the run record");
      ("--cores", Arg.Set_int cores, "N core count, recorded in the run record");
      ("--out-dir", Arg.Set_string out_dir, "DIR where run records and traces go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun (module W : Workload.S) -> W.name = !workload) workloads with
  | None ->
      prerr_endline ("osrbench: unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  | Some w ->
      let env =
        J.Obj
          [
            ("cores", Jsonw.int !cores);
            ("recommended_domain_count", Jsonw.int (Domain.recommended_domain_count ()));
            ("ocaml", J.Str Sys.ocaml_version);
            ("commit", J.Str !commit);
            ("profile", J.Str !profile);
          ]
      in
      exit
        (run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~quick:!quick ~env
           ~out_dir:!out_dir)
