(** Tests for the Domain work pool and the deterministic-merge contract:
    results commit in task order, a failing task propagates the
    lowest-index error after the batch drains (no hang, pool reusable),
    buffered telemetry merges deterministically, and the pooled
    feasibility sweep is byte-equal to the sequential one at any domain
    count, on every kernel. *)

module T = Telemetry
module Pool = Parallel.Pool
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility

(* A deterministic clock: every reading advances one millisecond.  Only
   the domain that owns a sink reads it — pooled tasks record no spans —
   so sharing one across a differential run is safe. *)
let fake_clock () =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := v +. 0.001;
    v

(* -------------------- pool basics -------------------- *)

let test_results_in_order () =
  Pool.with_pool ~jobs:3 @@ fun pool ->
  let r = Pool.run pool ~chunk:4 (fun i -> (7 * i) + 1) 100 in
  Alcotest.(check int) "slot count" 100 (Array.length r);
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) ((7 * i) + 1) v)
    r;
  let empty = Pool.run pool (fun i -> i) 0 in
  Alcotest.(check int) "empty batch" 0 (Array.length empty)

exception Boom of int

let test_error_propagates_lowest_and_pool_survives () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  (match
     Pool.run pool ~chunk:2 (fun i -> if i = 33 || i = 17 then raise (Boom i) else i) 50
   with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Pool.Task_failed { index; exn; _ } ->
      Alcotest.(check int) "lowest failing index wins" 17 index;
      (match exn with
      | Boom 17 -> ()
      | _ -> Alcotest.fail "wrong payload exception"));
  (* The batch drained and the pool is reusable: the next batch runs. *)
  let r = Pool.run pool (fun i -> i * i) 10 in
  Alcotest.(check int) "pool survives a failing batch" 81 r.(9)

let test_error_jobs1_same_contract () =
  Pool.with_pool ~jobs:1 @@ fun pool ->
  match
    Pool.run pool (fun i -> if i >= 3 then raise (Boom i) else i) 9
  with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Pool.Task_failed { index; _ } ->
      Alcotest.(check int) "inline path reports the same index" 3 index

(* -------------------- buffered telemetry -------------------- *)

let c_par = T.counter ~group:"test" "par_merge" ~desc:"suite-local merge counter"

let test_fork_join_counters_and_remarks () =
  T.reset_counters ();
  let parent = T.create ~clock:(fake_clock ()) () in
  let a = T.fork parent and b = T.fork parent in
  T.bump a c_par;
  T.add b c_par 4;
  Alcotest.(check int) "buffered: registry untouched before join" 0 c_par.T.value;
  T.remark b ~pass:"p" (fun () -> "from b");
  T.remark a ~pass:"p" (fun () -> "from a");
  T.join parent a;
  T.join parent b;
  Alcotest.(check int) "deltas add up after join" 5 c_par.T.value;
  Alcotest.(check (list string))
    "remarks in join order" [ "from a"; "from b" ]
    (List.map (fun (r : T.remark) -> r.T.rmsg) (T.remarks parent));
  T.reset_counters ()

let test_fork_of_null_is_free () =
  let child = T.fork T.null in
  T.reset_counters ();
  T.bump child c_par;
  T.join T.null child;
  Alcotest.(check int) "null fork counts nothing" 0 c_par.T.value

(* -------------------- the pooled drivers -------------------- *)

(* One sweep of [ctx] under a fresh live sink: the summary, the merged
   counters, the remarks and the trace. *)
let sweep ?pool (ctx : Ctx.t) =
  T.reset_counters ();
  let sink = T.create ~clock:(fake_clock ()) () in
  let s = F.analyze ~telemetry:sink ?pool ctx in
  (s, T.counters_json (), List.map T.remark_to_string (T.remarks sink), T.trace_events sink)

(* Every kernel, both directions: one context per direction, swept inline
   and then by pools of 2 and 4 domains.  The pooled sweeps share that
   context across their domains, and running all three over the same value
   also shows the context keeps no query-time state: an earlier sweep
   cannot change what a later one sees. *)
let test_sweep_differential () =
  Pool.with_pool ~jobs:2 @@ fun pool2 ->
  Pool.with_pool ~jobs:4 @@ fun pool4 ->
  List.iteri
    (fun k (e : Corpus.Kernels.entry) ->
      let r = P.apply (fst (Corpus.Dsl.to_fbase e.kernel)) in
      let fwd, bwd = Ctx.make_pair ~fbase:r.P.fbase ~fopt:r.P.fopt ~mapper:r.P.mapper () in
      List.iter
        (fun (dir, ctx) ->
          let what = Printf.sprintf "%s %s" e.benchmark dir in
          let ((s_seq, seq_counters, seq_remarks, seq_trace) as seq) = sweep ctx in
          (* The pooled sweep cuts the point list into 64-point slices; on
             the first kernel, at least one per domain keeps the
             multi-slice merge exercised. *)
          if k = 0 then
            Alcotest.(check bool)
              (what ^ ": at least one 64-point slice per domain") true
              ((s_seq.F.total_points + 63) / 64 >= Pool.jobs pool4);
          List.iter
            (fun pool ->
              let s_par, par_counters, par_remarks, par_trace = sweep ~pool ctx in
              let what = Printf.sprintf "%s j=%d" what (Pool.jobs pool) in
              Alcotest.(check bool) (what ^ ": reports byte-equal") true (s_seq = s_par);
              Alcotest.(check string)
                (what ^ ": merged counters byte-equal") seq_counters par_counters;
              Alcotest.(check (list string))
                (what ^ ": remarks byte-equal, in point order") seq_remarks par_remarks;
              (* Under a deterministic clock the whole trace matches too:
                 pooled chunks record no spans of their own, so both runs
                 contain exactly the spans of the sequential sweep. *)
              Alcotest.(check bool)
                (what ^ ": trace events byte-equal under deterministic clocks") true
                (seq_trace = par_trace))
            [ pool2; pool4 ];
          Alcotest.(check bool) (what ^ ": a second inline sweep is identical") true
            (sweep ctx = seq))
        [ ("fwd", fwd); ("bwd", bwd) ])
    Corpus.Kernels.all;
  T.reset_counters ()

let suite =
  ( "parallel",
    [
      Alcotest.test_case "pool: results in task order" `Quick test_results_in_order;
      Alcotest.test_case "pool: lowest error propagates, pool survives" `Quick
        test_error_propagates_lowest_and_pool_survives;
      Alcotest.test_case "pool: jobs=1 error contract" `Quick test_error_jobs1_same_contract;
      Alcotest.test_case "telemetry: fork/join merges deterministically" `Quick
        test_fork_join_counters_and_remarks;
      Alcotest.test_case "telemetry: null fork stays free" `Quick test_fork_of_null_is_free;
      Alcotest.test_case "feasibility: parallel sweep byte-equal" `Quick
        test_sweep_differential;
    ] )
