(** What the three workloads share: seeded input streams, the reference
    oracle, feasible-site selection, one armed activation on the compiled
    engine, and the exact per-cycle counts. *)

module Ir = Miniir.Ir
module Interp = Tinyvm.Interp
module E = Tinyvm.Engine.Compiled
module Rt = Osrir.Osr_runtime
module F = Osrir.Feasibility

exception Setup_failed of string

(** A workload replays a fixed, seeded cycle of ops.  [op t tr ~counts i]
    runs the cycle's [i]-th op (the timed part), adds its exact counts to
    [counts], and returns the op's oracle check, which the harness runs
    after the clock stops.  [verify] is the oracle that needs the whole
    run: failed ops, checks made, messages. *)
module type S = sig
  type t

  val name : string
  val setup : quick:bool -> seed:int -> t
  val cycle : t -> int

  val window : t -> int
  (** Ops per timing window: the cycle is cut into windows with the same
      mix of work, and the end-to-end figures select among windows. *)

  val op : t -> Tracer.t -> counts:int array -> int -> unit -> bool
  val verify : t -> int * int * string list
end

(* One stream per (seed, purpose): a draw added to one stream never shifts
   another. *)
let stream ~(seed : int) (purpose : string) : Random.State.t =
  Random.State.make [| seed; Hashtbl.hash purpose |]

let shuffle (rng : Random.State.t) (a : 'a array) : unit =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(** Seeded arguments for a corpus kernel: its default size (the work per
    activation stays the same for every seed) and a data seed in
    [\[1, 65535\]]. *)
let kernel_args (rng : Random.State.t) (e : Corpus.Kernels.entry) : int list =
  match e.Corpus.Kernels.default_args with
  | [ n; _ ] -> [ n; 1 + Random.State.int rng 65535 ]
  | args -> args

(** The step budget of every activation. *)
let fuel = 10_000_000

type reference = {
  outcome : Interp.outcome;
  arrivals : int array;  (** dynamic arrivals at each instruction id *)
}

(** The oracle: a plain run of [f] on the reference interpreter, counting
    how often execution arrives at each program point — the profile a JIT
    has when it picks where to transition. *)
let reference (f : Ir.func) ~(args : int list) : reference =
  let m = Interp.create ~fuel f ~args in
  let arrivals = Array.make (max 1 f.Ir.next_id) 0 in
  let rec go () =
    match Interp.next_instr_id m with
    | None -> ()
    | Some id -> (
        if id >= 0 && id < Array.length arrivals then arrivals.(id) <- arrivals.(id) + 1;
        match Interp.step m with
        | Interp.Running -> go ()
        | Interp.Returned _ | Interp.Trapped _ -> ())
  in
  go ();
  match m.Interp.status with
  | Interp.Returned ret ->
      { outcome = { Interp.ret; events = List.rev m.Interp.events; steps = m.Interp.steps }; arrivals }
  | Interp.Trapped t ->
      raise (Setup_failed (Fmt.str "%s: reference run trapped: %a" f.Ir.fname Interp.pp_trap t))
  | Interp.Running -> raise (Setup_failed (f.Ir.fname ^ ": reference run did not finish"))

let same_observables (o : Interp.outcome) (want : Interp.outcome) : bool =
  o.Interp.ret = want.Interp.ret && List.equal Interp.equal_event o.Interp.events want.Interp.events

type site = {
  point : int;
  landing : int;
  plan : Osrir.Reconstruct_ir.plan;
  reach : int;  (** fewest arrivals at [point] over the profiled runs *)
}

(** Points of a sweep that are feasible (avail) and reached by every
    profiled run. *)
let feasible_sites (s : F.summary) (profiles : int array list) : site list =
  List.filter_map
    (fun (r : F.point_report) ->
      match (r.F.landing, r.F.avail_plan) with
      | Some landing, Some plan ->
          let reach =
            List.fold_left
              (fun acc a -> min acc (if r.F.point < Array.length a then a.(r.F.point) else 0))
              max_int profiles
          in
          if reach > 0 && reach < max_int then Some { point = r.F.point; landing; plan; reach }
          else None
      | _ -> None)
    s.F.reports

(** The seeded arrival at which a site fires: one of its first three. *)
let arrival (draw : int) (s : site) : int = draw mod min 3 s.reach

type activation = {
  result : (Interp.outcome, Interp.trap) result;
  committed : bool;  (** a transition committed *)
  aborted : int;  (** rolled-back attempts *)
}

let armed_site (at : int) (cont : Osrir.Contfun.t) : E.machine Rt.gsite =
  { Rt.at; guard = (fun _ -> false); cont }

let finished (m : E.machine) : (Interp.outcome, Interp.trap) result =
  match E.status m with
  | Interp.Returned ret -> Ok { Interp.ret; events = List.rev (E.events_rev m); steps = E.steps m }
  | Interp.Trapped t -> Error t
  | Interp.Running -> Error (Interp.Fuel_exhausted (E.steps m))

(** One activation of [m] with [armed] sites whose guards never hold and,
    with [fire = Some (at, cont, n)], one more site that fires on the
    [n]-th arrival at [at].  Untraced, this is one [run_with_osr].  The
    trace splits a firing activation at its layer boundaries instead:
    [run_to_point], [fire], [run_machine] (the other armed sites are not
    checked on that path). *)
let activate (tr : Tracer.t) (m : E.machine) ~(armed : E.machine Rt.gsite list)
    ~(fire : (int * Osrir.Contfun.t * int) option) : activation =
  match fire with
  | Some (at, cont, n) when Tracer.enabled tr -> (
      match Tracer.span tr "run_to_point" (fun () -> E.run_to_point ~fuel ~skip:n m ~point:at) with
      | None -> { result = finished m; committed = false; aborted = 0 }
      | Some m -> (
          match Tracer.span tr "fire" (fun () -> Rt.Compiled.fire m (armed_site at cont)) with
          | Error _ ->
              let result = Tracer.span tr "run_machine" (fun () -> E.run_machine ~fuel:max_int m) in
              { result; committed = false; aborted = 1 }
          | Ok c ->
              let result =
                match Tracer.span tr "run_machine" (fun () -> E.run_machine ~fuel:max_int c) with
                | Ok o ->
                    Ok
                      {
                        o with
                        Interp.events = List.rev_append (E.events_rev m) o.Interp.events;
                        steps = E.steps m + o.Interp.steps;
                      }
                | Error _ as e -> e
              in
              { result; committed = true; aborted = 0 }))
  | _ ->
      let sites =
        match fire with
        | None -> armed
        | Some (at, cont, n) ->
            let seen = ref 0 in
            let guard _ =
              let hit = !seen = n in
              incr seen;
              hit
            in
            { Rt.at; guard; cont } :: armed
      in
      let name = if Option.is_none fire then "run_armed" else "run_osr" in
      let result, o = Tracer.span tr name (fun () -> Rt.Compiled.run_with_osr ~fuel m sites) in
      { result; committed = Option.is_some o.Rt.transition; aborted = List.length o.Rt.aborted }

let activation_ok (a : activation) ~(fired : bool) ~(want : Interp.outcome) : bool =
  a.aborted = 0 && a.committed = fired
  && match a.result with Ok o -> same_observables o want | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Exact counts                                                         *)
(* ------------------------------------------------------------------ *)

(** Per-cycle counts; a seed gives the same values on every cycle of
    every run, traced or not. *)
let count_names =
  [|
    "fbase_instrs"; "fopt_instrs"; "mapper_actions"; "points"; "live_ok"; "avail_ok";
    "contfun_instrs"; "steps"; "fires"; "committed"; "aborted"; "breakpoints";
    "endangered_vars"; "recoverable_vars";
  |]

let c_fbase = 0
let c_fopt = 1
let c_actions = 2
let c_points = 3
let c_live = 4
let c_avail = 5
let c_contfun = 6
let c_steps = 7
let c_fires = 8
let c_committed = 9
let c_aborted = 10
let c_breakpoints = 11
let c_endangered = 12
let c_recoverable = 13
let bump (c : int array) (i : int) (n : int) : unit = c.(i) <- c.(i) + n

let count_activation (c : int array) (a : activation) ~(fired : bool) : unit =
  bump c c_steps (match a.result with Ok o -> o.Interp.steps | Error _ -> 0);
  if fired then bump c c_fires 1;
  if a.committed then bump c c_committed 1;
  bump c c_aborted a.aborted

let count_pipeline (c : int array) (r : Passes.Pass_manager.apply_result) : unit =
  let k = Passes.Code_mapper.counts r.Passes.Pass_manager.mapper in
  bump c c_fbase (Ir.instr_count r.Passes.Pass_manager.fbase);
  bump c c_fopt (Ir.instr_count r.Passes.Pass_manager.fopt);
  bump c c_actions
    Passes.Code_mapper.(k.add + k.delete + k.hoist + k.sink + k.replace)
