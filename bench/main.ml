(** The benchmark harness: regenerates every table and figure of the
    paper's evaluation (Section 6: Tables 1–3, Figures 7–8; Section 7:
    Tables 4–5, Figure 9) over this repository's corpus, plus timing
    micro-benchmarks of the OSR machinery and ablation studies of the
    design choices called out in DESIGN.md.

    Usage: [bench/main.exe [table1|table2|fig7|fig8|table3|table4|fig9|
    table5|perf|smoke|ablate|all]] (default: all).  [perf] accepts
    [--trace-out FILE] to also emit a Chrome-trace JSON of the sweep and a
    per-pass timing table; [smoke] is the fast self-check wired into
    [dune runtest]. *)

module Ir = Miniir.Ir
module P = Passes.Pass_manager
module CM = Passes.Code_mapper
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility
module R = Osrir.Reconstruct_ir
module Interp = Tinyvm.Interp

(* ------------------------------------------------------------------ *)
(* Shared per-kernel data, computed once                                *)
(* ------------------------------------------------------------------ *)

type kernel_data = {
  entry : Corpus.Kernels.entry;
  fbase : Ir.func;
  fopt : Ir.func;
  mapper : CM.t;
  per_pass : (string * CM.counts) list;
  fwd : F.summary Lazy.t;  (** fbase → fopt feasibility *)
  bwd : F.summary Lazy.t;  (** fopt → fbase feasibility *)
}

let build_kernel_data ?(telemetry = Telemetry.null) ?(pool : Parallel.Pool.t option)
    (entries : Corpus.Kernels.entry list) : kernel_data list =
  let prepared =
    List.map
      (fun (e : Corpus.Kernels.entry) -> (e, fst (Corpus.Dsl.to_fbase e.kernel)))
      entries
  in
  let applied =
    match pool with
    | Some pool when Parallel.Pool.jobs pool > 1 ->
        (* One function per task; telemetry forks merge in corpus order
           inside apply_corpus (the per-kernel spans below are a
           sequential-only nicety). *)
        P.apply_corpus ~pool ~telemetry (List.map snd prepared)
    | _ ->
        List.map
          (fun ((entry : Corpus.Kernels.entry), fbase) ->
            Telemetry.with_span telemetry ~cat:"kernel" entry.benchmark @@ fun () ->
            P.apply ~telemetry fbase)
          prepared
  in
  List.map2
    (fun ((entry : Corpus.Kernels.entry), _) (r : P.apply_result) ->
      {
        entry;
        fbase = r.fbase;
        fopt = r.fopt;
        mapper = r.mapper;
        per_pass = r.per_pass;
        fwd =
          lazy
            (F.analyze ~telemetry
               (Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Base_to_opt));
        bwd =
          lazy
            (F.analyze ~telemetry
               (Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Opt_to_base));
      })
    prepared applied

let kernel_data : kernel_data list Lazy.t = lazy (build_kernel_data Corpus.Kernels.all)

(* ------------------------------------------------------------------ *)
(* Table 1: per-pass instrumentation statistics                         *)
(* ------------------------------------------------------------------ *)

let pass_sources =
  [
    ("ADCE", "lib/passes/adce.ml");
    ("CP", "lib/passes/constprop.ml");
    ("CSE", "lib/passes/cse.ml");
    ("LICM", "lib/passes/licm.ml");
    ("SCCP", "lib/passes/sccp.ml");
    ("Sink", "lib/passes/sink.ml");
    ("LC", "lib/passes/loop_canon.ml");
    ("LCSSA", "lib/passes/lcssa.ml");
    ("other", "lib/passes/code_mapper.ml");
  ]

(* The harness may run from the repo root or from anywhere inside _build;
   dune tells executables where the workspace root is. *)
let read_source rel =
  let candidates =
    (match Sys.getenv_opt "DUNE_SOURCEROOT" with
    | Some root -> [ Filename.concat root rel ]
    | None -> [])
    @ [ rel; Filename.concat "../.." rel; Filename.concat "../../.." rel ]
  in
  List.find_map
    (fun path ->
      match In_channel.with_open_text path In_channel.input_all with
      | contents -> Some contents
      | exception Sys_error _ -> None)
    candidates

let count_lines rel =
  Option.map (fun c -> List.length (String.split_on_char '\n' c)) (read_source rel)

let count_instrumentation rel =
  Option.map
    (fun contents ->
      let count needle =
        let n = String.length needle in
        let rec go i acc =
          if i + n > String.length contents then acc
          else if String.sub contents i n = needle then go (i + n) (acc + 1)
          else go (i + 1) acc
        in
        go 0 0
      in
      count "Code_mapper.add_instr" + count "Code_mapper.delete_instr"
      + count "Code_mapper.hoist_instr" + count "Code_mapper.sink_instr"
      + count "Code_mapper.replace_all_uses" + count "Code_mapper.replace_use_in")
    (read_source rel)

let table1 () =
  let actions_across_corpus name =
    List.fold_left
      (fun acc kd ->
        match List.assoc_opt name kd.per_pass with
        | Some (c : CM.counts) -> acc + c.add + c.delete + c.hoist + c.sink + c.replace
        | None -> acc)
      0 (Lazy.force kernel_data)
  in
  let rows =
    List.map
      (fun (name, path) ->
        let loc = match count_lines path with Some n -> string_of_int n | None -> "?" in
        let sites =
          match count_instrumentation path with Some n -> string_of_int n | None -> "?"
        in
        let recorded =
          if name = "other" then "-" else string_of_int (actions_across_corpus name)
        in
        [ name; loc; sites; recorded ])
      pass_sources
  in
  print_string
    (Report.table
       ~title:
         "Table 1 - OSR-aware passes: size, CodeMapper instrumentation sites, and\n\
          actions recorded across the whole kernel corpus (the paper reports\n\
          edits to LLVM's C++ passes; here the passes are ours, so LOC covers\n\
          the full pass)"
       ~header:[ "pass"; "LOC"; "instr. sites"; "actions on corpus" ]
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 2: IR features of the analyzed code                            *)
(* ------------------------------------------------------------------ *)

let table2 () =
  let rows =
    List.map
      (fun kd ->
        let c = CM.counts kd.mapper in
        [
          kd.entry.benchmark;
          string_of_int (Ir.instr_count kd.fbase);
          string_of_int (Ir.phi_count kd.fbase);
          string_of_int (Ir.instr_count kd.fopt);
          string_of_int (Ir.phi_count kd.fopt);
          string_of_int c.add;
          string_of_int c.delete;
          string_of_int c.hoist;
          string_of_int c.sink;
          string_of_int c.replace;
        ])
      (Lazy.force kernel_data)
  in
  print_string
    (Report.table
       ~title:"Table 2 - IR features of analyzed code and primitive actions tracked"
       ~header:
         [ "benchmark"; "|fbase|"; "|phi_b|"; "|fopt|"; "|phi_o|"; "add"; "delete"; "hoist";
           "sink"; "replace" ]
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figures 7/8: feasible OSR point breakdown                            *)
(* ------------------------------------------------------------------ *)

let figure ~title which () =
  let entries =
    List.map
      (fun kd ->
        let s = Lazy.force (which kd) in
        let empty, live, avail = F.percentages s in
        (kd.entry.benchmark, [ ('.', empty); ('#', live); ('+', avail) ]))
      (Lazy.force kernel_data)
  in
  print_string (Report.stacked_bars ~title entries);
  print_newline ()

let fig7 =
  figure
    ~title:
      "Figure 7 - Breakdown of feasible fbase -> fopt OSR points\n\
       (. = c is empty, # = live reconstructs, + = avail reconstructs)"
    (fun kd -> kd.fwd)

let fig8 =
  figure
    ~title:
      "Figure 8 - Breakdown of feasible fopt -> fbase OSR points\n\
       (. = c is empty, # = live reconstructs, + = avail reconstructs)"
    (fun kd -> kd.bwd)

(* ------------------------------------------------------------------ *)
(* Table 3: compensation-code and keep-set sizes                        *)
(* ------------------------------------------------------------------ *)

let table3 () =
  let f2 = Report.fmt_float in
  let rows =
    List.map
      (fun kd ->
        let fwd = Lazy.force kd.fwd and bwd = Lazy.force kd.bwd in
        let favg_l, fmax_l = F.comp_stats fwd `Live in
        let favg_a, fmax_a = F.comp_stats fwd `Avail in
        let fkavg, fkmax = F.keep_stats fwd in
        let bavg_l, bmax_l = F.comp_stats bwd `Live in
        let bavg_a, bmax_a = F.comp_stats bwd `Avail in
        let bkavg, bkmax = F.keep_stats bwd in
        [
          kd.entry.benchmark;
          f2 favg_l; string_of_int fmax_l;
          f2 favg_a; string_of_int fmax_a;
          f2 fkavg; string_of_int fkmax;
          f2 bavg_l; string_of_int bmax_l;
          f2 bavg_a; string_of_int bmax_a;
          f2 bkavg; string_of_int bkmax;
        ])
      (Lazy.force kernel_data)
  in
  print_string
    (Report.table
       ~title:
         "Table 3 - compensation-code size |c| (avg/max) for live and avail and\n\
          keep-set size |K| (avg/max); left: fbase -> fopt, right: fopt -> fbase"
       ~header:
         [ "benchmark"; "cl avg"; "max"; "ca avg"; "max"; "K avg"; "max";
           "cl avg"; "max"; "ca avg"; "max"; "K avg"; "max" ]
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Section 7: the debugging study (Tables 4, 5 and Figure 9)            *)
(* ------------------------------------------------------------------ *)

type study_data = {
  prof : Corpus.Spec_c.profile;
  reports : Debuginfo.Endangered.func_report list;
}

let study_data : study_data list Lazy.t =
  lazy
    (List.map
       (fun (prof : Corpus.Spec_c.profile) ->
         let reports =
           List.map
             (fun (sf : Corpus.Spec_c.study_func) ->
               let r = P.apply sf.fbase in
               Debuginfo.Endangered.analyze_function ~fbase:r.fbase ~fopt:r.fopt
                 ~mapper:r.mapper ~user_vars:sf.dbg.user_vars
                 ~source_points:sf.dbg.source_points)
             (Corpus.Spec_c.functions_of prof)
         in
         { prof; reports })
       Corpus.Spec_c.profiles)

let table4 () =
  let f2 = Report.fmt_float in
  let rows =
    List.map
      (fun sd ->
        let total = List.length sd.reports in
        let opt = List.filter (fun r -> r.Debuginfo.Endangered.optimized) sd.reports in
        let endd = List.filter Debuginfo.Endangered.is_endangered sd.reports in
        let fractions = List.map Debuginfo.Endangered.affected_fraction endd in
        let weights =
          List.map (fun r -> float_of_int r.Debuginfo.Endangered.base_size) endd
        in
        let avg_u, _ = Report.mean_stddev fractions in
        let avg_w =
          match weights with
          | [] -> 0.0
          | _ ->
              List.fold_left2 (fun acc f w -> acc +. (f *. w)) 0.0 fractions weights
              /. List.fold_left ( +. ) 0.0 weights
        in
        let per_point =
          List.concat_map
            (fun r -> List.map float_of_int (Debuginfo.Endangered.endangered_counts r))
            endd
        in
        let mean, sd_ = Report.mean_stddev per_point in
        let peak = List.fold_left max 0.0 per_point in
        [
          sd.prof.bench;
          string_of_int total;
          string_of_int (List.length opt);
          string_of_int (List.length endd);
          f2 avg_w;
          f2 avg_u;
          f2 mean;
          f2 sd_;
          string_of_int (int_of_float peak);
        ])
      (Lazy.force study_data)
  in
  print_string
    (Report.table
       ~title:
         "Table 4 - debugging study over the SPEC-C function families\n\
          (|Ftot| scaled 1/16 of the paper's; see EXPERIMENTS.md)"
       ~header:
         [ "benchmark"; "|Ftot|"; "|Fopt|"; "|Fend|"; "Avg_w"; "Avg_u"; "avg"; "sigma"; "max" ]
       rows);
  print_newline ()

let fig9 () =
  let entries =
    List.map
      (fun sd ->
        let endd = List.filter Debuginfo.Endangered.is_endangered sd.reports in
        let weighted which =
          let pairs =
            List.filter_map
              (fun r ->
                Option.map
                  (fun ratio -> (ratio, float_of_int r.Debuginfo.Endangered.base_size))
                  (Debuginfo.Endangered.recoverability r which))
              endd
          in
          match pairs with
          | [] -> 1.0
          | _ ->
              List.fold_left (fun acc (x, w) -> acc +. (x *. w)) 0.0 pairs
              /. List.fold_left (fun acc (_, w) -> acc +. w) 0.0 pairs
        in
        (sd.prof.bench, [ ("live", weighted `Live); ("avail", weighted `Avail) ]))
      (Lazy.force study_data)
  in
  print_string
    (Report.ratio_bars
       ~title:"Figure 9 - global average recoverability ratio (weighted by |fbase|)"
       entries);
  print_newline ()

let table5 () =
  let f2 = Report.fmt_float in
  let rows =
    List.map
      (fun sd ->
        let endd = List.filter Debuginfo.Endangered.is_endangered sd.reports in
        let keeps = List.map (fun r -> Debuginfo.Endangered.keep_set r) endd in
        let nonempty = List.filter (fun k -> k <> []) keeps in
        let frac =
          match endd with
          | [] -> 0.0
          | _ -> float_of_int (List.length nonempty) /. float_of_int (List.length endd)
        in
        let sizes = List.map (fun k -> float_of_int (List.length k)) nonempty in
        let avg, sd_ = Report.mean_stddev sizes in
        [ sd.prof.bench; f2 frac; f2 avg; f2 sd_ ])
      (Lazy.force study_data)
  in
  print_string
    (Report.table
       ~title:"Table 5 - values to preserve for avail (share of Fend, avg, sigma)"
       ~header:[ "benchmark"; "frac"; "avg"; "sigma" ]
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Feasibility-sweep timing (the Figure 7/8 hot path)                   *)
(* ------------------------------------------------------------------ *)

(* Pre-PR baseline of the full fwd+bwd sweep on this corpus, measured with
   this very harness before the Func_index / analysis-manager /
   single-scan-landing / bitset-liveness work landed.  Kept here so every
   perf run reports the speedup against the seed and BENCH_feasibility.json
   records both numbers. *)
let baseline_sweep_wall_s = 0.252732  (* 5252 points, seed commit, best of 3 *)
let baseline_points_per_sec = 20780.9

type sweep_row = {
  sk_bench : string;
  sk_points : int;  (** source points, fwd + bwd *)
  sk_wall_s : float;  (** wall time for the fwd+bwd sweep *)
}

let time_sweep ?(telemetry = Telemetry.null) (kds : kernel_data list) : sweep_row list =
  List.map
    (fun kd ->
      (* Fresh contexts every time: the sweep cost we care about includes
         the per-version side analyses, exactly as the bench tables pay it. *)
      let t0 = Unix.gettimeofday () in
      let fwd_ctx, bwd_ctx =
        Ctx.make_pair ~fbase:kd.fbase ~fopt:kd.fopt ~mapper:kd.mapper ()
      in
      let fwd, bwd =
        Telemetry.with_span telemetry ~cat:"sweep" kd.entry.benchmark @@ fun () ->
        (F.analyze ~telemetry fwd_ctx, F.analyze ~telemetry bwd_ctx)
      in
      let t1 = Unix.gettimeofday () in
      {
        sk_bench = kd.entry.benchmark;
        sk_points = fwd.F.total_points + bwd.F.total_points;
        sk_wall_s = t1 -. t0;
      })
    kds

(** One warm-up run, then best of three. *)
let best_of_3 (f : unit -> int) : int * float =
  ignore (f () : int);
  let time () =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let runs = List.init 3 (fun _ -> time ()) in
  (fst (List.hd runs), List.fold_left (fun a (_, t) -> min a t) infinity runs)

let sweep_perf ?trace_out () =
  let kds = Lazy.force kernel_data in
  (* One warm-up sweep (corpus construction, allocator), then the timed
     runs: best of three to shave scheduler noise.  The timed runs always
     use the null sink, so the recorded numbers are the uninstrumented
     cost; the optional traced run happens afterwards. *)
  ignore (time_sweep kds : sweep_row list);
  let runs = [ time_sweep kds; time_sweep kds; time_sweep kds ] in
  let total rows = List.fold_left (fun a r -> a +. r.sk_wall_s) 0.0 rows in
  let best = List.fold_left (fun acc r -> if total r < total acc then r else acc)
      (List.hd runs) (List.tl runs) in
  let total_wall = total best in
  let total_points = List.fold_left (fun a r -> a + r.sk_points) 0 best in
  let pps = float_of_int total_points /. total_wall in
  print_endline "Feasibility sweep (fwd + bwd, per kernel):";
  Printf.printf "  %-14s %10s %12s %14s\n" "benchmark" "points" "wall (ms)" "points/sec";
  List.iter
    (fun r ->
      Printf.printf "  %-14s %10d %12.2f %14.0f\n" r.sk_bench r.sk_points
        (1000.0 *. r.sk_wall_s)
        (float_of_int r.sk_points /. r.sk_wall_s))
    best;
  Printf.printf "  %-14s %10d %12.2f %14.0f\n" "TOTAL" total_points (1000.0 *. total_wall) pps;
  if baseline_sweep_wall_s > 0.0 then
    Printf.printf "  speedup vs pre-PR baseline (%.2f ms): %.2fx\n"
      (1000.0 *. baseline_sweep_wall_s)
      (baseline_sweep_wall_s /. total_wall);
  (* Machine-readable perf trajectory seed. *)
  let oc = open_out "BENCH_feasibility.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"benchmark\": \"feasibility sweep fwd+bwd over corpus\",\n";
  Printf.fprintf oc "  \"baseline\": { \"wall_s\": %.6f, \"points_per_sec\": %.1f },\n"
    baseline_sweep_wall_s baseline_points_per_sec;
  Printf.fprintf oc "  \"current\": { \"wall_s\": %.6f, \"points_per_sec\": %.1f },\n"
    total_wall pps;
  Printf.fprintf oc "  \"speedup\": %.3f,\n"
    (if baseline_sweep_wall_s > 0.0 then baseline_sweep_wall_s /. total_wall else 1.0);
  Printf.fprintf oc "  \"total_points\": %d,\n" total_points;
  Printf.fprintf oc "  \"kernels\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc "    { \"benchmark\": \"%s\", \"points\": %d, \"wall_s\": %.6f }%s\n"
        r.sk_bench r.sk_points r.sk_wall_s
        (if i = List.length best - 1 then "" else ","))
    best;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  print_endline "  wrote BENCH_feasibility.json";
  (match trace_out with
  | None -> ()
  | Some path ->
      (* A separate instrumented run — full pipeline rebuild plus one sweep
         under a live sink — so the trace shows both the per-pass and the
         per-kernel breakdown without polluting the timed numbers above. *)
      let sink = Telemetry.create () in
      Telemetry.reset_counters ();
      let traced = build_kernel_data ~telemetry:sink Corpus.Kernels.all in
      ignore (time_sweep ~telemetry:sink traced : sweep_row list);
      print_string
        (Report.table ~title:"Per-pass timing of the traced run (wall clock)"
           ~header:[ "span"; "count"; "total (ms)"; "self (ms)" ]
           (Telemetry.timing_rows sink));
      Telemetry.write_chrome_trace sink path;
      Printf.printf "  wrote %s (%d trace events)\n" path
        (List.length (Telemetry.trace_events sink)));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Parallel sweep scaling (`perf-par` -> BENCH_parallel.json)           *)
(* ------------------------------------------------------------------ *)

(** One full fwd+bwd sweep over the corpus through [pool]: same cost model
    as {!time_sweep} (fresh contexts every run, side analyses built
    serially in the caller's domain, point classification sharded across
    the pool).  Returns total points classified. *)
let pool_sweep ~(pool : Parallel.Pool.t) ?(telemetry = Telemetry.null)
    (kds : kernel_data list) : int =
  List.fold_left
    (fun acc kd ->
      let fwd_ctx, bwd_ctx =
        Ctx.make_pair ~fbase:kd.fbase ~fopt:kd.fopt ~mapper:kd.mapper ()
      in
      let fwd = F.analyze ~telemetry ~pool fwd_ctx in
      let bwd = F.analyze ~telemetry ~pool bwd_ctx in
      acc + fwd.F.total_points + bwd.F.total_points)
    0 kds

let write_parallel_json path ~cores ~seq_points ~seq_wall
    ~(rows : (int * int * float) list) ~ov1 ~ovmax =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc
    "  \"benchmark\": \"parallel feasibility sweep fwd+bwd over corpus\",\n";
  Printf.fprintf oc "  \"hardware_cores\": %d,\n" cores;
  Printf.fprintf oc
    "  \"note\": \"hardware_cores is Domain.recommended_domain_count on the \
     measuring machine; pool speedups are bounded above by it\",\n";
  Printf.fprintf oc
    "  \"sequential\": { \"wall_s\": %.6f, \"points_per_sec\": %.1f, \
     \"total_points\": %d },\n"
    seq_wall
    (float_of_int seq_points /. seq_wall)
    seq_points;
  Printf.fprintf oc "  \"pool\": [\n";
  List.iteri
    (fun i (j, pts, wall) ->
      Printf.fprintf oc
        "    { \"jobs\": %d, \"wall_s\": %.6f, \"points_per_sec\": %.1f, \
         \"speedup_vs_seq\": %.3f, \"total_points\": %d }%s\n"
        j wall
        (float_of_int pts /. wall)
        (seq_wall /. wall) pts
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n";
  (match List.find_opt (fun (j, _, _) -> j = 1) rows with
  | Some (_, _, w1) ->
      Printf.fprintf oc "  \"j1_overhead_vs_sequential_pct\": %.2f,\n"
        (100.0 *. (w1 -. seq_wall) /. seq_wall)
  | None -> ());
  Printf.fprintf oc
    "  \"telemetry_live_overhead_pct\": { \"j1\": %.2f, \"jmax\": %.2f },\n" ov1 ovmax;
  (* Fork/merge cost proper: live-vs-null overhead growth from the inline
     j=1 path (no forks) to the widest pool (one fork per chunk). *)
  Printf.fprintf oc "  \"merge_overhead_pct\": %.2f\n" (ovmax -. ov1);
  Printf.fprintf oc "}\n";
  close_out oc

let parallel_perf () =
  let kds = Lazy.force kernel_data in
  let cores = Domain.recommended_domain_count () in
  (* Sequential reference: the exact sweep loop `perf` times. *)
  let seq_points, seq_wall =
    best_of_3 (fun () -> List.fold_left (fun a r -> a + r.sk_points) 0 (time_sweep kds))
  in
  let js = List.sort_uniq compare [ 1; 2; 4; cores ] in
  let rows =
    List.map
      (fun j ->
        Parallel.Pool.with_pool ~jobs:j (fun pool ->
            let pts, wall = best_of_3 (fun () -> pool_sweep ~pool kds) in
            (j, pts, wall)))
      js
  in
  (* Telemetry cost of the pooled sweep under a live buffered sink, at the
     inline j=1 path and at the widest pool; their difference isolates the
     per-chunk fork + join overhead. *)
  let live_overhead j =
    Parallel.Pool.with_pool ~jobs:j (fun pool ->
        let _, null_wall = best_of_3 (fun () -> pool_sweep ~pool kds) in
        let _, live_wall =
          best_of_3 (fun () ->
              Telemetry.reset_counters ();
              pool_sweep ~pool ~telemetry:(Telemetry.create ()) kds)
        in
        Telemetry.reset_counters ();
        100.0 *. (live_wall -. null_wall) /. null_wall)
  in
  let jmax = List.fold_left max 1 js in
  let ov1 = live_overhead 1 in
  let ovmax = live_overhead jmax in
  print_endline "Parallel feasibility sweep (fwd + bwd over corpus, best of 3):";
  Printf.printf "  %-12s %10s %12s %14s %9s\n" "config" "points" "wall (ms)" "points/sec"
    "speedup";
  Printf.printf "  %-12s %10d %12.2f %14.0f %8s\n" "sequential" seq_points
    (1000.0 *. seq_wall)
    (float_of_int seq_points /. seq_wall)
    "1.00x";
  List.iter
    (fun (j, pts, wall) ->
      Printf.printf "  %-12s %10d %12.2f %14.0f %8.2fx\n"
        (Printf.sprintf "pool -j %d" j)
        pts (1000.0 *. wall)
        (float_of_int pts /. wall)
        (seq_wall /. wall))
    rows;
  Printf.printf "  live-sink overhead: %+.2f%% at j=1, %+.2f%% at j=%d (merge %+.2f%%)\n"
    ov1 ovmax jmax (ovmax -. ov1);
  Printf.printf "  hardware cores: %d\n" cores;
  write_parallel_json "BENCH_parallel.json" ~cores ~seq_points ~seq_wall ~rows ~ov1 ~ovmax;
  print_endline "  wrote BENCH_parallel.json";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Engine timing: reference interpreter vs compiled TinyVM              *)
(* ------------------------------------------------------------------ *)

(* Pre-PR baseline of the SEED tree-walking interpreter on this corpus,
   measured with a throwaway probe at the seed commit (before the per-block
   body-array fix and the compiled engine).  [plain] runs fbase and fopt of
   every kernel to completion on the default args; [armed] runs fbase with
   every source program point armed through [Osr_runtime.run_with_osr] with
   a never-firing guard and a real generated continuation.  Best of three,
   kept here so every perf run reports the speedup against the seed and
   BENCH_interp.json records both numbers. *)
let baseline_interp_wall_s = 0.080917 (* 377020 steps, seed commit, best of 3 *)
let baseline_interp_steps = 377_020
let baseline_armed_wall_s = 0.160517 (* 201821 steps, 12 kernels armed *)
let baseline_armed_steps = 201_821

type interp_workloads = {
  iw_plain : (Ir.func * int list) list;  (** fbase and fopt of every kernel *)
  iw_armed : (Ir.func * int list * int list * Osrir.Contfun.t) list;
      (** fbase, args, source points to arm, generated continuation *)
  iw_fire : (Ir.func * int list * int * Osrir.Contfun.t) list;
      (** fbase, args, the feasible point itself, continuation — a site
          whose guard fires on first arrival, for measuring the
          frame-validation cost of a committing transition *)
}

let interp_workloads (kds : kernel_data list) : interp_workloads =
  let iw_plain =
    List.concat_map
      (fun kd -> [ (kd.fbase, kd.entry.default_args); (kd.fopt, kd.entry.default_args) ])
      kds
  in
  let found =
    List.filter_map
      (fun kd ->
        let ctx = Ctx.make ~fbase:kd.fbase ~fopt:kd.fopt ~mapper:kd.mapper Ctx.Base_to_opt in
        let s = F.analyze ctx in
        List.find_map
          (fun (rep : F.point_report) ->
            match (rep.F.landing, rep.F.avail_plan) with
            | Some landing, Some plan -> Some (rep.F.point, landing, plan)
            | _ -> None)
          s.F.reports
        |> Option.map (fun (point, landing, plan) ->
               let cont = Osrir.Contfun.generate kd.fopt ~landing plan in
               (kd.fbase, kd.entry.default_args, point, Ctx.source_points ctx, cont)))
      kds
  in
  let iw_armed = List.map (fun (f, a, _, pts, c) -> (f, a, pts, c)) found in
  let iw_fire = List.map (fun (f, a, p, _, c) -> (f, a, p, c)) found in
  { iw_plain; iw_armed; iw_fire }

(* The runners return total executed steps (a correctness cross-check: both
   engines and the seed baseline must agree), and are closed over any
   per-engine setup so the timed region is execution only — mirroring the
   seed probe, which also built its site lists up front.  Machine creation
   (and, for the compiled engine, compilation) stays inside the timed
   region: that is the end-to-end cost a client pays per activation. *)
let plain_runner (module E : Tinyvm.Engine.S) (w : interp_workloads) : unit -> int =
 fun () ->
  List.fold_left
    (fun acc (f, args) ->
      match E.run ~fuel:50_000_000 f ~args with
      | Ok o -> acc + o.Interp.steps
      | Error _ -> acc)
    0 w.iw_plain

let armed_runner (module E : Tinyvm.Engine.S) (w : interp_workloads) : unit -> int =
  let module Rt = Osrir.Osr_runtime.Make (E) in
  let prepared =
    List.map
      (fun (fbase, args, points, cont) ->
        let sites =
          List.map
            (fun p -> { Osrir.Osr_runtime.at = p; guard = (fun _ -> false); cont })
            points
        in
        (fbase, args, sites))
      w.iw_armed
  in
  fun () ->
    List.fold_left
      (fun acc (fbase, args, sites) ->
        let m = E.create fbase ~args in
        match fst (Rt.run_with_osr ~fuel:50_000_000 m sites) with
        | Ok o -> acc + o.Interp.steps
        | Error _ -> acc)
      0 prepared

(* Guarded-transition overhead: the same firing workload run with and
   without frame validation at the landing point isolates the cost of the
   validation sweep itself; plain execution already carries the only other
   robustness cost (the per-step fuel branch). *)
let firing_runner (module E : Tinyvm.Engine.S) (w : interp_workloads) ~(validate : bool) :
    unit -> int =
  let module Rt = Osrir.Osr_runtime.Make (E) in
  fun () ->
    List.fold_left
      (fun acc (fbase, args, point, cont) ->
        let m = E.create fbase ~args in
        let sites = [ { Osrir.Osr_runtime.at = point; guard = (fun _ -> true); cont } ] in
        match fst (Rt.run_with_osr ~fuel:50_000_000 ~validate m sites) with
        | Ok o -> acc + o.Interp.steps
        | Error _ -> acc)
      0 w.iw_fire

type engine_meas = {
  em_name : string;
  em_plain_steps : int;
  em_plain_wall : float;
  em_armed_steps : int;
  em_armed_wall : float;
  em_fire_validated_wall : float;
  em_fire_unvalidated_wall : float;
  em_fire_steps : int;
}

let measure_engine (e : (module Tinyvm.Engine.S)) (w : interp_workloads) : engine_meas =
  let (module E) = e in
  let em_plain_steps, em_plain_wall = best_of_3 (plain_runner e w) in
  let em_armed_steps, em_armed_wall = best_of_3 (armed_runner e w) in
  let em_fire_steps, em_fire_validated_wall = best_of_3 (firing_runner e w ~validate:true) in
  let unval_steps, em_fire_unvalidated_wall = best_of_3 (firing_runner e w ~validate:false) in
  if unval_steps <> em_fire_steps then
    Printf.printf "  WARNING: %s firing steps differ with validation off: %d vs %d\n"
      E.name unval_steps em_fire_steps;
  {
    em_name = E.name;
    em_plain_steps;
    em_plain_wall;
    em_armed_steps;
    em_armed_wall;
    em_fire_validated_wall;
    em_fire_unvalidated_wall;
    em_fire_steps;
  }

let write_interp_json path (engines : engine_meas list) =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc
    "  \"benchmark\": \"corpus kernel execution: reference vs compiled engine\",\n";
  Printf.fprintf oc "  \"baseline\": {\n";
  Printf.fprintf oc "    \"plain\": { \"wall_s\": %.6f, \"steps\": %d },\n" baseline_interp_wall_s
    baseline_interp_steps;
  Printf.fprintf oc "    \"armed\": { \"wall_s\": %.6f, \"steps\": %d }\n" baseline_armed_wall_s
    baseline_armed_steps;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"engines\": [\n";
  List.iteri
    (fun i e ->
      Printf.fprintf oc "    { \"name\": \"%s\",\n" e.em_name;
      Printf.fprintf oc
        "      \"plain\": { \"wall_s\": %.6f, \"steps\": %d, \"speedup_vs_seed\": %.3f },\n"
        e.em_plain_wall e.em_plain_steps
        (baseline_interp_wall_s /. e.em_plain_wall);
      Printf.fprintf oc
        "      \"armed\": { \"wall_s\": %.6f, \"steps\": %d, \"speedup_vs_seed\": %.3f } }%s\n"
        e.em_armed_wall e.em_armed_steps
        (baseline_armed_wall_s /. e.em_armed_wall)
        (if i = List.length engines - 1 then "" else ","))
    engines;
  Printf.fprintf oc "  ],\n";
  (* Guarded-transition costs: firing workload with/without landing-point
     frame validation.  With validation disabled the only remaining
     robustness cost on plain execution is the per-step fuel branch,
     budgeted at <3% of plain-interp wall (the plain walls above are
     directly comparable to the pre-PR committed BENCH_interp.json). *)
  Printf.fprintf oc "  \"robustness\": [\n";
  List.iteri
    (fun i e ->
      Printf.fprintf oc
        "    { \"name\": \"%s\", \"firing_validated_wall_s\": %.6f, \
         \"firing_unvalidated_wall_s\": %.6f, \"firing_steps\": %d, \
         \"validation_overhead_pct\": %.2f }%s\n"
        e.em_name e.em_fire_validated_wall e.em_fire_unvalidated_wall e.em_fire_steps
        (100.0
        *. (e.em_fire_validated_wall -. e.em_fire_unvalidated_wall)
        /. e.em_fire_unvalidated_wall)
        (if i = List.length engines - 1 then "" else ","))
    engines;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"plain_overhead_budget_pct\": 3.0,\n";
  (* The headline number: compiled-engine plain execution vs the seed
     interpreter. *)
  let compiled = List.find (fun e -> e.em_name = "compiled") engines in
  Printf.fprintf oc "  \"speedup\": %.3f\n" (baseline_interp_wall_s /. compiled.em_plain_wall);
  Printf.fprintf oc "}\n";
  close_out oc

let interp_perf () =
  let w = interp_workloads (Lazy.force kernel_data) in
  let engines = List.map (fun e -> measure_engine e w) Tinyvm.Engine.all in
  print_endline "Engine timing (corpus kernels, best of 3; seed* = recorded baseline):";
  Printf.printf "  %-8s %-10s %10s %12s %11s %9s\n" "workload" "engine" "steps" "wall (ms)"
    "Msteps/s" "vs seed";
  let row workload name steps wall base =
    Printf.printf "  %-8s %-10s %10d %12.2f %11.2f %8.2fx\n" workload name steps
      (1000.0 *. wall)
      (float_of_int steps /. wall /. 1e6)
      (base /. wall)
  in
  row "plain" "seed*" baseline_interp_steps baseline_interp_wall_s baseline_interp_wall_s;
  List.iter
    (fun e -> row "plain" e.em_name e.em_plain_steps e.em_plain_wall baseline_interp_wall_s)
    engines;
  row "armed" "seed*" baseline_armed_steps baseline_armed_wall_s baseline_armed_wall_s;
  List.iter
    (fun e -> row "armed" e.em_name e.em_armed_steps e.em_armed_wall baseline_armed_wall_s)
    engines;
  List.iter
    (fun e ->
      Printf.printf "  %-8s %-10s %10d %12.2f  validation overhead %+.2f%%\n" "fire"
        e.em_name e.em_fire_steps
        (1000.0 *. e.em_fire_validated_wall)
        (100.0
        *. (e.em_fire_validated_wall -. e.em_fire_unvalidated_wall)
        /. e.em_fire_unvalidated_wall))
    engines;
  List.iter
    (fun e ->
      if e.em_plain_steps <> baseline_interp_steps then
        Printf.printf "  WARNING: %s plain steps %d <> seed %d\n" e.em_name e.em_plain_steps
          baseline_interp_steps;
      if e.em_armed_steps <> baseline_armed_steps then
        Printf.printf "  WARNING: %s armed steps %d <> seed %d\n" e.em_name e.em_armed_steps
          baseline_armed_steps)
    engines;
  write_interp_json "BENCH_interp.json" engines;
  print_endline "  wrote BENCH_interp.json";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Smoke check (wired into `dune runtest`; also `make bench-smoke`)     *)
(* ------------------------------------------------------------------ *)

(** Run the sweep on two kernels under a live sink, emit a Chrome trace
    and validate it with the in-tree JSON reader: the artifact path the
    [perf] mode exercises must stay loadable. *)
let smoke () =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("bench smoke: FAILED: " ^ m);
        exit 1)
      fmt
  in
  (* Two-domain parallel slice: the pooled paths must match the sequential
     ones byte-for-byte on a small corpus before the perf numbers mean
     anything. *)
  let entries2 = List.filteri (fun i _ -> i < 2) Corpus.Kernels.all in
  Parallel.Pool.with_pool ~jobs:2 (fun pool ->
      let squares =
        Parallel.Pool.run pool ~scratch:(fun () -> ()) (fun () i -> i * i) 64
      in
      Array.iteri
        (fun i v -> if v <> i * i then fail "pool run: slot %d holds %d" i v)
        squares;
      let seq_kds = build_kernel_data entries2 in
      let par_kds = build_kernel_data ~pool entries2 in
      List.iter2
        (fun a b ->
          if Ir.func_to_string a.fopt <> Ir.func_to_string b.fopt then
            fail "parallel pass pipeline produced different IR for %s" a.entry.benchmark)
        seq_kds par_kds;
      List.iter
        (fun kd ->
          let mk () =
            Ctx.make ~fbase:kd.fbase ~fopt:kd.fopt ~mapper:kd.mapper Ctx.Base_to_opt
          in
          Telemetry.reset_counters ();
          let s_seq = F.analyze ~telemetry:(Telemetry.create ()) (mk ()) in
          let c_seq = Telemetry.counters_json () in
          Telemetry.reset_counters ();
          let s_par = F.analyze ~telemetry:(Telemetry.create ()) ~pool ~chunk:8 (mk ()) in
          let c_par = Telemetry.counters_json () in
          if s_seq <> s_par then
            fail "parallel sweep summary differs from sequential for %s" kd.entry.benchmark;
          if c_seq <> c_par then
            fail "merged counters differ from sequential for %s" kd.entry.benchmark)
        seq_kds);
  (* The BENCH_parallel.json writer must emit loadable JSON. *)
  let ppath = Filename.temp_file "osr_par_smoke" ".json" in
  write_parallel_json ppath ~cores:2 ~seq_points:100 ~seq_wall:1.0
    ~rows:[ (1, 100, 1.0); (2, 100, 0.9) ]
    ~ov1:0.5 ~ovmax:1.5;
  let pcontents = In_channel.with_open_text ppath In_channel.input_all in
  Sys.remove ppath;
  let module J = Telemetry.Json in
  (match J.parse pcontents with
  | Error e -> fail "parallel bench JSON unparseable: %s" e
  | Ok json -> (
      match (J.member "sequential" json, J.member "pool" json) with
      | Some (J.Obj _), Some (J.Arr (_ :: _)) -> ()
      | _ -> fail "parallel bench JSON lacks \"sequential\"/\"pool\""));
  let sink = Telemetry.create () in
  Telemetry.reset_counters ();
  let kds =
    build_kernel_data ~telemetry:sink (List.filteri (fun i _ -> i < 2) Corpus.Kernels.all)
  in
  if List.length kds <> 2 then fail "expected 2 kernels, corpus has %d" (List.length kds);
  let rows = time_sweep ~telemetry:sink kds in
  List.iter (fun r -> if r.sk_points <= 0 then fail "kernel %s swept 0 points" r.sk_bench) rows;
  let path = Filename.temp_file "osr_trace_smoke" ".json" in
  Telemetry.write_chrome_trace sink path;
  let contents = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let module J = Telemetry.Json in
  (match J.parse contents with
  | Error e -> fail "trace JSON unparseable: %s" e
  | Ok json -> (
      match J.member "traceEvents" json with
      | Some (J.Arr []) -> fail "trace has no events"
      | Some (J.Arr events) ->
          List.iter
            (fun ev ->
              match (J.member "ph" ev, J.member "name" ev, J.member "ts" ev, J.member "dur" ev)
              with
              | Some (J.Str "X"), Some (J.Str _), Some (J.Num ts), Some (J.Num dur) ->
                  if ts < 0.0 || dur < 0.0 then fail "negative ts/dur in trace event"
              | _ -> fail "trace event is not a complete \"X\" event")
            events
      | Some _ | None -> fail "trace JSON has no traceEvents array"));
  (match J.parse (Telemetry.counters_json ()) with
  | Error e -> fail "counters JSON unparseable: %s" e
  | Ok _ -> ());
  if Telemetry.nonzero_counters () = [] then fail "no counters bumped";
  (* The interp-bench path: one untimed run of both workloads on both
     engines over the two kernels — the engines must agree on total steps —
     then the JSON the [interp] mode commits must be loadable. *)
  let w = interp_workloads kds in
  if w.iw_armed = [] then fail "no kernel could arm its OSR sites";
  let engines =
    List.map
      (fun e ->
        let (module E : Tinyvm.Engine.S) = e in
        {
          em_name = E.name;
          em_plain_steps = plain_runner e w ();
          em_plain_wall = 1.0;
          em_armed_steps = armed_runner e w ();
          em_armed_wall = 1.0;
          em_fire_validated_wall = 1.0;
          em_fire_unvalidated_wall = 1.0;
          em_fire_steps = firing_runner e w ~validate:true ();
        })
      Tinyvm.Engine.all
  in
  (match engines with
  | [ a; b ] ->
      if a.em_plain_steps <= 0 then fail "engine %s executed 0 plain steps" a.em_name;
      if a.em_plain_steps <> b.em_plain_steps then
        fail "plain steps disagree: %s=%d %s=%d" a.em_name a.em_plain_steps b.em_name
          b.em_plain_steps;
      if a.em_armed_steps <= 0 then fail "engine %s executed 0 armed steps" a.em_name;
      if a.em_armed_steps <> b.em_armed_steps then
        fail "armed steps disagree: %s=%d %s=%d" a.em_name a.em_armed_steps b.em_name
          b.em_armed_steps;
      if a.em_fire_steps <> b.em_fire_steps then
        fail "firing steps disagree: %s=%d %s=%d" a.em_name a.em_fire_steps b.em_name
          b.em_fire_steps
  | _ -> fail "expected 2 engines, got %d" (List.length engines));
  let ipath = Filename.temp_file "osr_interp_smoke" ".json" in
  write_interp_json ipath engines;
  let icontents = In_channel.with_open_text ipath In_channel.input_all in
  Sys.remove ipath;
  (match J.parse icontents with
  | Error e -> fail "interp bench JSON unparseable: %s" e
  | Ok json -> (
      (match J.member "speedup" json with
      | Some (J.Num s) when s > 0.0 -> ()
      | _ -> fail "interp bench JSON has no positive \"speedup\"");
      match (J.member "baseline" json, J.member "engines" json) with
      | Some (J.Obj _), Some (J.Arr (_ :: _ :: _)) -> ()
      | _ -> fail "interp bench JSON lacks \"baseline\"/\"engines\""));
  Printf.printf
    "bench smoke OK: %d kernels, %d points, %d trace events, %d nonzero counters, engines \
     agree on %d+%d steps\n"
    (List.length rows)
    (List.fold_left (fun a r -> a + r.sk_points) 0 rows)
    (List.length (Telemetry.trace_events sink))
    (List.length (Telemetry.nonzero_counters ()))
    (List.hd engines).em_plain_steps (List.hd engines).em_armed_steps

(* ------------------------------------------------------------------ *)
(* Timing micro-benchmarks                                              *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let kd = List.nth (Lazy.force kernel_data) 0 (* bzip2 *) in
  let ctx = Ctx.make ~fbase:kd.fbase ~fopt:kd.fopt ~mapper:kd.mapper Ctx.Base_to_opt in
  let src_point, landing =
    (* a mid-function OSR point with a non-empty live plan *)
    let s = Lazy.force kd.fwd in
    match
      List.find_opt
        (fun (r : F.point_report) ->
          match r.classification with F.With_live _ -> true | _ -> false)
        s.reports
    with
    | Some r -> (r.point, Option.get r.landing)
    | None ->
        let p = List.hd (Ctx.source_points ctx) in
        (p, p)
  in
  let plan =
    match R.for_point_pair ~variant:R.Avail ctx ~src_point ~landing with
    | Ok p -> p
    | Error _ -> { R.transfers = []; comp = []; keep = [] }
  in
  let tests =
    [
      Test.make ~name:"apply (clone+optimize+map)"
        (Staged.stage (fun () -> ignore (P.apply kd.fbase : P.apply_result)));
      Test.make ~name:"reconstruct one point (avail)"
        (Staged.stage (fun () ->
             ignore (R.for_point_pair ~variant:R.Avail ctx ~src_point ~landing)));
      Test.make ~name:"feasibility (whole function)"
        (Staged.stage (fun () -> ignore (F.analyze ctx : F.summary)));
      Test.make ~name:"continuation-function generation"
        (Staged.stage (fun () ->
             ignore (Osrir.Contfun.generate kd.fopt ~landing plan : Osrir.Contfun.t)));
      Test.make ~name:"interpreter steady state (fopt)"
        (Staged.stage (fun () -> ignore (Interp.run kd.fopt ~args:kd.entry.default_args)));
      Test.make ~name:"OSR transition end-to-end"
        (Staged.stage (fun () ->
             ignore
               (Osrir.Osr_runtime.Reference.run_transition_full ~src:kd.fbase
                  ~args:kd.entry.default_args ~at:src_point ~target:kd.fopt ~landing plan)));
    ]
  in
  print_endline "Timing micro-benchmarks (monotonic clock, Bechamel):";
  List.iter
    (fun test ->
      let instances = [ Toolkit.Instance.monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
      let raw = Benchmark.all cfg instances test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock raw
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-40s %14.1f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "  %-40s (no estimate)\n%!" name)
        results)
    tests;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let ablate () =
  let configs =
    [
      ("full", R.default_config);
      ("no constant-phi", { R.default_config with constant_phi = false });
      ("no replace-aliases", { R.default_config with use_aliases = false });
      ("no gating", { R.default_config with gating = false });
      ("none", { R.constant_phi = false; use_aliases = false; gating = false });
    ]
  in
  let rows =
    List.concat_map
      (fun kd ->
        List.map
          (fun (cname, config) ->
            let s =
              F.analyze ~config
                (Ctx.make ~fbase:kd.fbase ~fopt:kd.fopt ~mapper:kd.mapper Ctx.Base_to_opt)
            in
            let b =
              F.analyze ~config
                (Ctx.make ~fbase:kd.fbase ~fopt:kd.fopt ~mapper:kd.mapper Ctx.Opt_to_base)
            in
            let pct n total = 100.0 *. float_of_int n /. float_of_int (max 1 total) in
            [
              kd.entry.benchmark;
              cname;
              Report.fmt_float ~digits:1 (pct s.live_ok s.total_points);
              Report.fmt_float ~digits:1 (pct s.avail_ok s.total_points);
              Report.fmt_float ~digits:1 (pct b.live_ok b.total_points);
              Report.fmt_float ~digits:1 (pct b.avail_ok b.total_points);
            ])
          configs)
      (List.filteri (fun i _ -> i < 6) (Lazy.force kernel_data))
  in
  print_string
    (Report.table
       ~title:
         "Ablation - OSR feasibility (% of points) with reconstruction features\n\
          disabled (fwd = fbase->fopt, bwd = fopt->fbase)"
       ~header:[ "benchmark"; "config"; "fwd live"; "fwd avail"; "bwd live"; "bwd avail" ]
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)

let usage () =
  print_endline
    "usage: main.exe [table1|table2|fig7|fig8|table3|table4|fig9|table5|\n\
    \       perf [--trace-out FILE]|perf-par|interp|smoke|micro|ablate|all]"

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (* The only option: `perf --trace-out FILE` (a Chrome trace of the
     instrumented run). *)
  let trace_out =
    let rec find i =
      if i + 1 >= Array.length Sys.argv then None
      else if Sys.argv.(i) = "--trace-out" then Some Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 2
  in
  match cmd with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "fig7" -> fig7 ()
  | "fig8" -> fig8 ()
  | "table3" -> table3 ()
  | "table4" -> table4 ()
  | "fig9" -> fig9 ()
  | "table5" -> table5 ()
  | "perf" -> sweep_perf ?trace_out ()
  | "perf-par" -> parallel_perf ()
  | "interp" -> interp_perf ()
  | "smoke" -> smoke ()
  | "micro" -> micro ()
  | "ablate" -> ablate ()
  | "all" ->
      table1 ();
      table2 ();
      fig7 ();
      fig8 ();
      table3 ();
      table4 ();
      fig9 ();
      table5 ();
      ablate ();
      sweep_perf ?trace_out ();
      parallel_perf ();
      interp_perf ();
      micro ()
  | _ -> usage ()
