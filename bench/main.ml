(** The benchmark harness: regenerates every table and figure of the
    paper's evaluation (Section 6: Tables 1–3, Figures 7–8; Section 7:
    Tables 4–5, Figure 9) over this repository's corpus, plus ablation
    studies of the design choices called out in DESIGN.md and the
    parallel-sweep scaling run.

    Usage: [bench/main.exe [table1|table2|fig7|fig8|table3|table4|fig9|
    table5|ablate|perf-par|smoke|census|all]] (default: all).  [perf-par]
    times the feasibility sweep at several pool widths and writes
    BENCH_parallel.json; [smoke] is its fast untimed self-check, wired into
    [dune runtest]; [census] prints the heap a compiled continuation keeps
    (not part of [all]).  Per-layer timing of the whole pipeline is
    [osrbench/]'s job. *)

module Ir = Miniir.Ir
module P = Passes.Pass_manager
module CM = Passes.Code_mapper
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility
module R = Osrir.Reconstruct_ir

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

let build_kernel_data (entries : Corpus.Kernels.entry list) : kernel_data list =
  List.map
    (fun (entry : Corpus.Kernels.entry) ->
      let r = P.apply (fst (Corpus.Dsl.to_fbase entry.kernel)) in
      {
        entry;
        fbase = r.fbase;
        fopt = r.fopt;
        mapper = r.mapper;
        per_pass = r.per_pass;
        fwd =
          lazy (F.analyze (Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Base_to_opt));
        bwd =
          lazy (F.analyze (Ctx.make ~fbase:r.fbase ~fopt:r.fopt ~mapper:r.mapper Ctx.Opt_to_base));
      })
    entries

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
(* Parallel sweep scaling (`perf-par` -> BENCH_parallel.json)           *)
(* ------------------------------------------------------------------ *)

(** Fwd+bwd points of each kernel, swept through [pool] when one is given.
    Fresh contexts every run: the cost includes the per-version side
    analyses, built serially in the caller's domain exactly as the tables
    pay them; a multi-domain pool shards only the point classification. *)
let sweep_points ?pool ?(telemetry = Telemetry.null) (kds : kernel_data list) : int list =
  List.map
    (fun kd ->
      let fwd_ctx, bwd_ctx =
        Ctx.make_pair ~fbase:kd.fbase ~fopt:kd.fopt ~mapper:kd.mapper ()
      in
      let fwd = F.analyze ~telemetry ?pool fwd_ctx in
      let bwd = F.analyze ~telemetry ?pool bwd_ctx in
      fwd.F.total_points + bwd.F.total_points)
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

type scaling = {
  cores : int;  (** [Domain.recommended_domain_count] of the measuring machine *)
  seq_points : int;
  seq_wall : float;  (** the sweep without a pool *)
  rows : (int * int * float) list;  (** jobs, points, wall *)
  ov1 : float;  (** live-sink overhead (%) on the inline j=1 path *)
  ovmax : float;  (** live-sink overhead (%) at the widest pool *)
}

(** The sweep of [kds] without a pool and through a pool of each width in
    [js].  [time f] returns [f ()] and its wall time: {!best_of_3} for
    [perf-par], one untimed run for the smoke. *)
let measure_scaling ~(time : (unit -> int) -> int * float) ~(js : int list)
    (kds : kernel_data list) : scaling =
  let total ?pool ?telemetry () = List.fold_left ( + ) 0 (sweep_points ?pool ?telemetry kds) in
  let seq_points, seq_wall = time (fun () -> total ()) in
  let rows =
    List.map
      (fun j ->
        Parallel.Pool.with_pool ~jobs:j (fun pool ->
            let pts, wall = time (fun () -> total ~pool ()) in
            (j, pts, wall)))
      js
  in
  (* Telemetry cost of the pooled sweep under a live buffered sink, at the
     inline j=1 path and at the widest pool; their difference isolates the
     per-chunk fork + join overhead. *)
  let live_overhead j =
    Parallel.Pool.with_pool ~jobs:j (fun pool ->
        let _, null_wall = time (fun () -> total ~pool ()) in
        let _, live_wall =
          time (fun () ->
              Telemetry.reset_counters ();
              total ~pool ~telemetry:(Telemetry.create ()) ())
        in
        Telemetry.reset_counters ();
        100.0 *. (live_wall -. null_wall) /. null_wall)
  in
  let ov1 = live_overhead 1 in
  let ovmax = live_overhead (List.fold_left max 1 js) in
  { cores = Domain.recommended_domain_count (); seq_points; seq_wall; rows; ov1; ovmax }

let write_parallel_json path (s : scaling) =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc
    "  \"benchmark\": \"parallel feasibility sweep fwd+bwd over corpus\",\n";
  Printf.fprintf oc "  \"hardware_cores\": %d,\n" s.cores;
  Printf.fprintf oc
    "  \"note\": \"hardware_cores is Domain.recommended_domain_count on the \
     measuring machine; pool speedups are bounded above by it\",\n";
  Printf.fprintf oc
    "  \"sequential\": { \"wall_s\": %.6f, \"points_per_sec\": %.1f, \
     \"total_points\": %d },\n"
    s.seq_wall
    (float_of_int s.seq_points /. s.seq_wall)
    s.seq_points;
  Printf.fprintf oc "  \"pool\": [\n";
  List.iteri
    (fun i (j, pts, wall) ->
      Printf.fprintf oc
        "    { \"jobs\": %d, \"wall_s\": %.6f, \"points_per_sec\": %.1f, \
         \"speedup_vs_seq\": %.3f, \"total_points\": %d }%s\n"
        j wall
        (float_of_int pts /. wall)
        (s.seq_wall /. wall) pts
        (if i = List.length s.rows - 1 then "" else ","))
    s.rows;
  Printf.fprintf oc "  ],\n";
  (match List.find_opt (fun (j, _, _) -> j = 1) s.rows with
  | Some (_, _, w1) ->
      Printf.fprintf oc "  \"j1_overhead_vs_sequential_pct\": %.2f,\n"
        (100.0 *. (w1 -. s.seq_wall) /. s.seq_wall)
  | None -> ());
  Printf.fprintf oc
    "  \"telemetry_live_overhead_pct\": { \"j1\": %.2f, \"jmax\": %.2f },\n" s.ov1 s.ovmax;
  (* Fork/merge cost proper: live-vs-null overhead growth from the inline
     j=1 path (no forks) to the widest pool (one fork per chunk). *)
  Printf.fprintf oc "  \"merge_overhead_pct\": %.2f\n" (s.ovmax -. s.ov1);
  Printf.fprintf oc "}\n";
  close_out oc

let parallel_perf () =
  let cores = Domain.recommended_domain_count () in
  let js = List.sort_uniq compare [ 1; 2; 4; cores ] in
  let s = measure_scaling ~time:best_of_3 ~js (Lazy.force kernel_data) in
  print_endline "Parallel feasibility sweep (fwd + bwd over corpus, best of 3):";
  Printf.printf "  %-12s %10s %12s %14s %9s\n" "config" "points" "wall (ms)" "points/sec"
    "speedup";
  Printf.printf "  %-12s %10d %12.2f %14.0f %8s\n" "sequential" s.seq_points
    (1000.0 *. s.seq_wall)
    (float_of_int s.seq_points /. s.seq_wall)
    "1.00x";
  List.iter
    (fun (j, pts, wall) ->
      Printf.printf "  %-12s %10d %12.2f %14.0f %8.2fx\n"
        (Printf.sprintf "pool -j %d" j)
        pts (1000.0 *. wall)
        (float_of_int pts /. wall)
        (s.seq_wall /. wall))
    s.rows;
  Printf.printf "  live-sink overhead: %+.2f%% at j=1, %+.2f%% at j=%d (merge %+.2f%%)\n"
    s.ov1 s.ovmax (List.fold_left max 1 js) (s.ovmax -. s.ov1);
  Printf.printf "  hardware cores: %d\n" s.cores;
  write_parallel_json "BENCH_parallel.json" s;
  print_endline "  wrote BENCH_parallel.json";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Smoke check (wired into `dune runtest`; also `make bench-smoke`)     *)
(* ------------------------------------------------------------------ *)

(** [perf-par] untimed on two kernels at j = 1 and 2: every kernel sweeps
    some points, every pool width sweeps the sequential point count, and
    the BENCH_parallel.json writer emits JSON the in-tree reader loads. *)
let smoke () =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("bench smoke: FAILED: " ^ m);
        exit 1)
      fmt
  in
  let kds = build_kernel_data (List.filteri (fun i _ -> i < 2) Corpus.Kernels.all) in
  if List.length kds <> 2 then fail "expected 2 kernels, corpus has %d" (List.length kds);
  List.iter2
    (fun kd pts -> if pts <= 0 then fail "kernel %s swept 0 points" kd.entry.benchmark)
    kds (sweep_points kds);
  let s = measure_scaling ~time:(fun f -> (f (), 1.0)) ~js:[ 1; 2 ] kds in
  List.iter
    (fun (j, pts, _) ->
      if pts <> s.seq_points then
        fail "pool -j %d swept %d points, sequential %d" j pts s.seq_points)
    s.rows;
  let path = Filename.temp_file "osr_par_smoke" ".json" in
  write_parallel_json path s;
  let contents = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let module J = Telemetry.Json in
  (match J.parse contents with
  | Error e -> fail "parallel bench JSON unparseable: %s" e
  | Ok json -> (
      match (J.member "sequential" json, J.member "pool" json) with
      | Some (J.Obj _), Some (J.Arr pool) when List.length pool = List.length s.rows -> ()
      | _ -> fail "parallel bench JSON lacks \"sequential\" or a \"pool\" row per width"));
  Printf.printf "bench smoke OK: %d kernels, %d points at j = 1 and 2\n" (List.length kds)
    s.seq_points

(* ------------------------------------------------------------------ *)
(* Compiled-continuation census                                         *)
(* ------------------------------------------------------------------ *)

(** The heap a compiled continuation keeps beyond its [f'to], over the
    shape of osrbench's [steady] setup: four continuations per direction
    per kernel (evenly spaced over the feasible points), each compiled and
    measured with [Obj.reachable_words], in total and per field of
    [Tinyvm.Compile.program] (a field's words beyond [f'to] and the
    record's header). *)
let census () =
  let fields =
    [ "func"; "code"; "ids"; "consts"; "edges"; "labels"; "regs"; "param_slots"; "max_moves" ]
  in
  let words x = Obj.reachable_words (Obj.repr x) in
  (* Words reachable from [x] and not from [fto]; the pair's own 3 words
     are not [x]'s. *)
  let beyond fto x = words (x, fto) - 3 - words fto in
  let sample (summary : F.summary Lazy.t) target =
    let feasible =
      Array.of_list
        (List.filter_map
           (fun (rep : F.point_report) ->
             match (rep.F.landing, rep.F.avail_plan) with
             | Some landing, Some plan -> Some (landing, plan)
             | _ -> None)
           (Lazy.force summary).F.reports)
    in
    let n = Array.length feasible in
    List.init (min 4 n) (fun i ->
        let landing, plan = feasible.(i * n / 4) in
        Osrir.Contfun.generate target ~landing plan)
  in
  let conts =
    List.concat_map
      (fun kd -> sample kd.fwd kd.fopt @ sample kd.bwd kd.fbase)
      (Lazy.force kernel_data)
  in
  let n = List.length conts in
  let totals = Array.make (List.length fields) 0 in
  let total = ref 0 and fto_words = ref 0 and instrs = ref 0 in
  List.iter
    (fun (c : Osrir.Contfun.t) ->
      let fto = c.Osrir.Contfun.fto in
      let p = Tinyvm.Compile.compile fto in
      total := !total + beyond fto p;
      fto_words := !fto_words + words fto;
      instrs := !instrs + Ir.instr_count fto;
      List.iteri
        (fun i _ -> totals.(i) <- totals.(i) + beyond fto (Obj.field (Obj.repr p) i))
        fields)
    conts;
  let kb w = float_of_int (w * (Sys.word_size / 8)) /. float_of_int n /. 1024. in
  Printf.printf "Compiled continuations: %d (4 per direction per kernel), %.0f instrs each\n" n
    (float_of_int !instrs /. float_of_int n);
  Printf.printf "  f'to itself                %6.1f KB\n" (kb !fto_words);
  Printf.printf "  program beyond f'to        %6.1f KB\n" (kb !total);
  List.iteri (fun i name -> Printf.printf "    %-24s %6.1f KB\n" name (kb totals.(i))) fields;
  Printf.printf "    %-24s %6.1f KB\n" "(record)" (kb (n * (List.length fields + 1)));
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

(* What [all] runs, in order. *)
let paper_modes =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig7", fig7);
    ("fig8", fig8);
    ("table3", table3);
    ("table4", table4);
    ("fig9", fig9);
    ("table5", table5);
    ("ablate", ablate);
    ("perf-par", parallel_perf);
  ]

let modes =
  paper_modes
  @ [ ("smoke", smoke); ("census", census); ("all", fun () -> List.iter (fun (_, run) -> run ()) paper_modes) ]

(* Every named mode runs, in order; an unknown one stops before any runs. *)
let () =
  let names = match List.tl (Array.to_list Sys.argv) with [] -> [ "all" ] | ns -> ns in
  match List.map (fun n -> List.assoc_opt n modes) names with
  | runs when List.for_all Option.is_some runs -> List.iter (fun run -> Option.get run ()) runs
  | _ ->
      Printf.printf "usage: main.exe [MODE...]  (default: all)\n  MODE = %s\n"
        (String.concat "|" (List.map fst modes));
      exit 2
