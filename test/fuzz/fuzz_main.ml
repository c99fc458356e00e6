(** Seeded fault-injection fuzzer (the large-iteration version of the
    robustness suite; see [make fuzz]).

    For every iteration: pick a corpus kernel, a feasible transition
    point and a fault seed; run the armed program under injection and
    check the robustness invariant — the run either recovers with
    observables byte-equal to the un-faulted differential run, or
    reports a typed {!Tinyvm.Osr_error.t}; never a crash, never a
    silently wrong answer.

    Each iteration is a pure function of its index, so [-j N] shards the
    iteration space across N domains and merges the per-task tallies in
    index order: totals, injection histograms and failure reports are
    byte-equal to a sequential run.  [FUZZ_SEED] in the environment
    overrides the default first seed (the [-seed0] flag still wins), and
    every failure prints the seed that reproduces it.

    {v [FUZZ_SEED=N] fuzz_main.exe [-n ITERS] [-seed0 N] [-j N]
       [-engine ref|compiled|all] v} *)

module Ir = Miniir.Ir
module Interp = Tinyvm.Interp
module Engine = Tinyvm.Engine
module Osr_error = Tinyvm.Osr_error
module P = Passes.Pass_manager
module Ctx = Osrir.Osr_ctx
module F = Osrir.Feasibility
module Rt = Osrir.Osr_runtime
module Fault = Osrir.Fault

let iters = ref 200

let seed0 =
  ref
    (match Sys.getenv_opt "FUZZ_SEED" with
    | Some s -> (
        match int_of_string_opt s with
        | Some n -> n
        | None ->
            Printf.eprintf "fuzz: ignoring non-numeric FUZZ_SEED=%S\n%!" s;
            1)
    | None -> 1)

let engine_names = ref "all"
let jobs = ref 1

let speclist =
  [
    ("-n", Arg.Set_int iters, "ITERS number of fuzzing iterations (default 200)");
    ( "-seed0",
      Arg.Set_int seed0,
      "N first fault seed (default 1, or $FUZZ_SEED if set)" );
    ( "-engine",
      Arg.Set_string engine_names,
      "ENGINE ref, compiled or all (default all)" );
    ( "-j",
      Arg.Set_int jobs,
      "N shard iterations across N domains (deterministic; default 1)" );
  ]

type case = {
  bench : string;
  src : Ir.func;
  target : Ir.func;
  args : int list;
  point : int;
  landing : int;
  plan : Osrir.Reconstruct_ir.plan;
}

(* Every feasible transition of every corpus kernel, both directions.
   Built once in the main domain; workers only read it. *)
let cases : case array =
  Corpus.Kernels.all
  |> List.concat_map (fun (e : Corpus.Kernels.entry) ->
         let fbase, _ = Corpus.Dsl.to_fbase e.kernel in
         let r = P.apply fbase in
         List.concat_map
           (fun dir ->
             let src, target =
               match dir with
               | Ctx.Base_to_opt -> (r.P.fbase, r.P.fopt)
               | Ctx.Opt_to_base -> (r.P.fopt, r.P.fbase)
             in
             let ctx =
               Ctx.make ~fbase:r.P.fbase ~fopt:r.P.fopt ~mapper:r.P.mapper dir
             in
             (F.analyze ctx).F.reports
             |> List.filter_map (fun (rep : F.point_report) ->
                    match (rep.F.landing, rep.F.avail_plan) with
                    | Some landing, Some plan ->
                        Some
                          {
                            bench = e.benchmark;
                            src;
                            target;
                            args = e.default_args;
                            point = rep.F.point;
                            landing;
                            plan;
                          }
                    | _ -> None))
           [ Ctx.Base_to_opt; Ctx.Opt_to_base ])
  |> Array.of_list

let fuel = 20_000_000

(* Per-task outcome record: workers never touch shared state, the main
   domain folds these in iteration order, so the merged totals, histogram
   and failure log are independent of the domain count. *)
type tally = {
  mutable t_crashes : int;
  mutable t_wrong : int;
  mutable t_committed : int;
  mutable t_aborted : int;
  mutable t_typed : int;
  mutable t_inj : (string * int) list;  (** injection histogram, unordered *)
  mutable t_failures : string list;  (** newest first *)
}

let fresh_tally () =
  {
    t_crashes = 0;
    t_wrong = 0;
    t_committed = 0;
    t_aborted = 0;
    t_typed = 0;
    t_inj = [];
    t_failures = [];
  }

let count_injections (t : tally) injector =
  List.iter
    (fun (k, _) ->
      let key = Fault.kind_to_string k in
      let n = Option.value ~default:0 (List.assoc_opt key t.t_inj) in
      t.t_inj <- (key, n + 1) :: List.remove_assoc key t.t_inj)
    (Fault.injected injector)

let fail_case (t : tally) c seed fmt =
  Printf.ksprintf
    (fun msg ->
      t.t_failures <-
        Printf.sprintf "FAIL %s at #%d (seed %d): %s" c.bench c.point seed msg
        :: t.t_failures)
    fmt

let run_case (t : tally) (module E : Engine.S) (c : case) ~(seed : int) ~only =
  let module M = Rt.Make (E) in
  let reference = E.run ~fuel c.src ~args:c.args in
  let injector = Fault.make ~seed in
  let hooks =
    match only with Some k -> Fault.hooks ~only:k injector | None -> Fault.hooks injector
  in
  match
    M.run_transition_full ~fuel ~hooks ~arrival:(seed mod 3) ~src:c.src ~args:c.args
      ~at:c.point ~target:c.target ~landing:c.landing c.plan
  with
  | exception Osr_error.Error _ ->
      (* Typed errors are an acceptable outcome, never a crash. *)
      t.t_typed <- t.t_typed + 1;
      count_injections t injector
  | exception e ->
      t.t_crashes <- t.t_crashes + 1;
      fail_case t c seed "untyped crash: %s" (Printexc.to_string e)
  | result, osr -> (
      count_injections t injector;
      if osr.Rt.aborted <> [] then t.t_aborted <- t.t_aborted + 1;
      match osr.Rt.transition with
      | None ->
          (* Nothing committed: byte-equal recovery, including steps and
             exact trap payloads. *)
          let byte_equal =
            match (reference, result) with
            | Ok a, Ok b ->
                a.Interp.ret = b.Interp.ret
                && a.Interp.steps = b.Interp.steps
                && List.equal Interp.equal_event a.Interp.events b.Interp.events
            | Error ta, Error tb -> ta = tb
            | _ -> false
          in
          if not byte_equal then begin
            t.t_wrong <- t.t_wrong + 1;
            fail_case t c seed "aborted run diverged: %s vs %s"
              (Fmt.str "%a" Interp.pp_result reference)
              (Fmt.str "%a" Interp.pp_result result)
          end
      | Some _ -> (
          t.t_committed <- t.t_committed + 1;
          if not (Interp.equal_result reference result) then
            let fuel_faulted =
              List.exists (fun (k, _) -> k = Fault.Fuel_cut) (Fault.injected injector)
            in
            match result with
            | Error (Interp.Fuel_exhausted _) when fuel_faulted ->
                t.t_typed <- t.t_typed + 1
            | _ ->
                t.t_wrong <- t.t_wrong + 1;
                fail_case t c seed "committed run diverged: %s vs %s"
                  (Fmt.str "%a" Interp.pp_result reference)
                  (Fmt.str "%a" Interp.pp_result result)))

let () =
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "[FUZZ_SEED=N] fuzz_main.exe [-n ITERS] [-seed0 N] [-j N] [-engine ref|compiled|all]";
  let engines =
    match !engine_names with
    | "all" -> Engine.all
    | name -> [ Engine.of_name_exn name ]
  in
  if Array.length cases = 0 then begin
    prerr_endline "no feasible transition points in the corpus";
    exit 2
  end;
  Printf.printf "fuzzing %d iterations over %d transition cases, seeds from %d (%d domain%s)\n%!"
    !iters (Array.length cases) !seed0 !jobs
    (if !jobs = 1 then "" else "s");
  let n_kinds = List.length Fault.all_kinds in
  (* One iteration = one task; everything it needs is derived from the
     index, so sharding cannot change what any iteration does. *)
  let run_iteration i : tally =
    let t = fresh_tally () in
    let seed = !seed0 + i in
    let c = cases.(seed * 2654435761 land max_int mod Array.length cases) in
    (* Alternate between pure seeded mode and per-kind deterministic mode
       so every kind gets exercised even at low iteration counts. *)
    let only =
      if i mod 3 = 0 then Some (List.nth Fault.all_kinds (i / 3 mod n_kinds)) else None
    in
    List.iter (fun e -> run_case t e c ~seed ~only) engines;
    t
  in
  let tallies =
    Parallel.Pool.with_pool ~jobs:!jobs (fun pool ->
        Parallel.Pool.run pool ~chunk:8 run_iteration !iters)
  in
  let total = fresh_tally () in
  Array.iter
    (fun (t : tally) ->
      total.t_crashes <- total.t_crashes + t.t_crashes;
      total.t_wrong <- total.t_wrong + t.t_wrong;
      total.t_committed <- total.t_committed + t.t_committed;
      total.t_aborted <- total.t_aborted + t.t_aborted;
      total.t_typed <- total.t_typed + t.t_typed;
      List.iter
        (fun (key, n) ->
          let m = Option.value ~default:0 (List.assoc_opt key total.t_inj) in
          total.t_inj <- (key, m + n) :: List.remove_assoc key total.t_inj)
        t.t_inj;
      List.iter
        (fun msg -> total.t_failures <- msg :: total.t_failures)
        (List.rev t.t_failures))
    tallies;
  List.iter (fun msg -> Printf.eprintf "%s\n%!" msg) (List.rev total.t_failures);
  Printf.printf "committed: %d  aborted: %d  typed errors: %d\n" total.t_committed
    total.t_aborted total.t_typed;
  Printf.printf "injections:";
  List.iter
    (fun (k, n) -> Printf.printf " %s=%d" k n)
    (List.sort compare total.t_inj);
  print_newline ();
  if total.t_crashes > 0 || total.t_wrong > 0 then begin
    Printf.printf "FAILED: %d crash(es), %d wrong answer(s)\n" total.t_crashes
      total.t_wrong;
    Printf.printf "reproduce with: FUZZ_SEED=%d %s -n %d -engine %s\n" !seed0
      Sys.executable_name !iters !engine_names;
    exit 1
  end;
  print_endline "robustness invariant held on every run"
