open Import

(** The OSR runtime: arms OSR points on a running TinyVM machine and fires
    transitions through generated continuation functions, OSRKit-style
    (Section 5.4).  A transition:

    {ol
    {- stops the source machine when it is about to execute an armed point
       and the guard holds;}
    {- evaluates the continuation's parameter sources against the live
       source frame;}
    {- runs the compensation code χ ([f'to]'s entry block) off to the side
       on a fresh continuation machine sharing the same memory;}
    {- validates the reconstructed frame against the registers live into
       the landing point;}
    {- only then {e commits}: the continuation runs to completion and its
       result is the result of the original activation.}}

    A continuation is compiled once: the first firing on the compiled
    engine builds [f'to]'s program and keeps it on the {!Contfun.t}
    ({!Tinyvm.Engine.S.of_cached}); every later firing reuses it.  χ's
    extent and whether χ can write memory are also read off the
    continuation.

    Transitions are {e guarded and transactional} (after Flückiger et
    al.'s treatment of deoptimization as an abortable event): any failure
    before the commit point — an unreadable source value, a trap inside χ,
    a frame that fails validation — rolls the shared memory back to its
    pre-transition snapshot (taken only when χ holds a [store] or an
    [alloca]; otherwise χ cannot have changed memory), disarms the site,
    records a typed {!Osr_error.t}, and resumes the {e source} frame
    exactly where it was.  An aborted transition is observably a no-op.

    The runtime is engine-polymorphic and written once: {!Make} builds the
    runtime signature {!S} over any {!Tinyvm.Engine.S}.  {!Compiled} runs
    on the compiled slot-register engine and is the production runtime;
    {!Reference} runs on the tree-walking interpreter and serves only as
    the differential oracle.  Armed points live in a direct-indexed
    [site option array] keyed by instruction id, mirrored by the byte
    array the engine's [run_to_armed] tests between armed points — O(1)
    per step, one guard evaluation per arrival. *)

module Engine = Tinyvm.Engine

type 'machine gsite = {
  at : int;  (** source instruction id where the transition may fire *)
  guard : 'machine -> bool;  (** user-provided firing condition *)
  cont : Contfun.t;
}

type transition_stats = {
  fired_at : int;
  comp_entry_instrs : int;  (** instructions executed in f'to's entry block *)
}

type abort = { abort_at : int; reason : Osr_error.t }
(** One aborted (rolled-back) transition attempt. *)

type osr_outcome = {
  transition : transition_stats option;  (** the committed transition, if any *)
  aborted : abort list;  (** aborted (rolled-back) attempts, in order *)
}

(** Runtime hooks: the seams the deterministic fault injector ({!Fault})
    plugs into.  Every hook defaults to "no interference"; each is
    consulted once per decision point.  They are deliberately
    engine-independent — plain functions over points and register names. *)
type hooks = {
  h_guard_trap : at:int -> Interp.trap option;
      (** make the guard at [at] trap instead of answering *)
  h_guard_override : at:int -> bool option;
      (** force ([Some true]) or suppress ([Some false]) the guard *)
  h_chi_trap : at:int -> Interp.trap option;
      (** inject a trap mid-χ (after roughly half the compensation code) *)
  h_poison : at:int -> live_in:Ir.reg list -> Ir.reg option;
      (** un-define one reconstructed register before validation *)
  h_fuel_cut : at:int -> int option;
      (** cap the continuation's fuel at the transition *)
}

let no_hooks : hooks =
  {
    h_guard_trap = (fun ~at:_ -> None);
    h_guard_override = (fun ~at:_ -> None);
    h_chi_trap = (fun ~at:_ -> None);
    h_poison = (fun ~at:_ ~live_in:_ -> None);
    h_fuel_cut = (fun ~at:_ -> None);
  }

(* OSR-event statistics: fired transitions, the compensation work each one
   executes on entry, and aborted (rolled-back) attempts (`--stats`). *)
let stat_fired = Telemetry.counter ~group:"osr" "fired" ~desc:"OSR transitions fired"

let stat_comp_instrs =
  Telemetry.counter ~group:"osr" "comp_instrs"
    ~desc:"compensation instructions executed across fired transitions"

let stat_aborted =
  Telemetry.counter ~group:"osr" "transition.aborted"
    ~desc:"OSR transitions aborted and rolled back"

(** The runtime over one engine's machines. *)
module type S = sig
  type machine

  val fire :
    ?hooks:hooks -> machine -> machine gsite -> (machine, Osr_error.t) result
  (** Attempt the transition now, transactionally: build the continuation
      machine sharing the source machine's memory, run χ (the entry block)
      to the landing point, and validate the reconstructed frame.  [Ok]
      returns the continuation machine {e paused at the landing point},
      committed — statistics bumped, remark emitted.  [Error] means the
      attempt was rolled back: the shared memory is byte-identical to its
      pre-attempt state and the source machine is untouched, so the caller
      can simply keep stepping it. *)

  val run_with_osr :
    ?fuel:int ->
    ?hooks:hooks ->
    machine ->
    machine gsite list ->
    (Interp.outcome, Interp.trap) result * osr_outcome
  (** Run the machine, transferring control at the first armed point whose
      guard fires and whose transition commits; continue in the
      continuation to completion.  Aborted attempts disarm their site,
      count in [osr.transition.aborted], and leave the source run
      observably untouched.  Events observed before the transition belong
      to the activation. *)

  val run_transition_full :
    ?fuel:int ->
    ?arrival:int ->
    ?hooks:hooks ->
    ?telemetry:Telemetry.sink ->
    src:Ir.func ->
    args:int list ->
    at:int ->
    target:Ir.func ->
    landing:int ->
    Reconstruct_ir.plan ->
    (Interp.outcome, Interp.trap) result * osr_outcome
  (** One-shot helper: run [src], transition at the [arrival]-th (default
      first) dynamic arrival at [at] into [target] at [landing] using
      [plan]; also report what the OSR machinery did (committed
      transition, aborted attempts). *)
end

module Make (E : Engine.S) : S with type machine := E.machine = struct
  (* Evaluate the parameter sources in the source frame. *)
  let eval_sources (m : E.machine) ~(at : int) (sources : Ir.value list) :
      (int list, Osr_error.t) result =
    let fname = (E.func m).Ir.fname in
    let exception Bad of Osr_error.t in
    try
      Ok
        (List.map
           (fun v ->
             match v with
             | Ir.Const n -> n
             | Ir.Undef ->
                 raise
                   (Bad
                      (Osr_error.Reconstruct_failed
                         { func = fname; at; what = "undef parameter source" }))
             | Ir.Reg r -> (
                 match E.read_reg m r with
                 | Some n -> n
                 | None ->
                     raise
                       (Bad
                          (Osr_error.Reconstruct_failed
                             {
                               func = fname;
                               at;
                               what = Printf.sprintf "source register %%%s not in frame" r;
                             }))))
           sources)
    with Bad e -> Error e

  let fire ?(hooks = no_hooks) (m : E.machine) (site : E.machine gsite) :
      (E.machine, Osr_error.t) result =
    let fname = (E.func m).Ir.fname in
    let c = site.cont in
    match eval_sources m ~at:site.at c.param_sources with
    | Error e -> Error e
    | Ok args -> (
        let tel = E.telemetry m in
        let mem = E.memory m in
        (* Transaction snapshot: χ may allocate and store before it traps;
           memory is the only state shared with the source frame.  A χ
           without [store] or [alloca] leaves memory as it found it, and
           needs none. *)
        let rollback =
          if not c.chi_writes_memory then ignore
          else
            let snap = Interp.mem_snapshot mem in
            fun () -> Interp.mem_restore mem snap
        in
        let fuel =
          match hooks.h_fuel_cut ~at:site.at with
          | Some n -> min n (E.fuel m)
          | None -> E.fuel m
        in
        match E.of_cached ~memory:mem ~telemetry:tel ~fuel c.compiled ~args with
        | exception Interp.Trap t ->
            Error
              (Osr_error.Reconstruct_failed
                 { func = fname; at = site.at; what = Fmt.str "%a" Interp.pp_trap t })
        | cont -> (
            let n_chi = c.chi_steps in
            let inject = hooks.h_chi_trap ~at:site.at in
            (* Step χ to the landing point (the entry block plus its
               terminator, whose edge moves run within the branch step). *)
            let rec run_chi k =
              match inject with
              | Some t when 2 * k >= n_chi -> `Chi_trap t
              | _ when k >= n_chi -> `Landed
              | _ -> (
                  match E.step cont with
                  | Interp.Running -> run_chi (k + 1)
                  | Interp.Trapped t -> `Chi_trap t
                  | Interp.Returned _ -> `Landed)
            in
            match run_chi 0 with
            | `Chi_trap t ->
                rollback ();
                Error
                  (match t with
                  | Interp.Fuel_exhausted steps ->
                      Osr_error.Fuel_exhausted { func = c.fto.Ir.fname; steps }
                  | t ->
                      Osr_error.Comp_trap
                        { func = fname; at = site.at; landing = c.landing; trap = t })
            | `Landed -> (
                (match hooks.h_poison ~at:site.at ~live_in:c.live_in with
                | Some r -> E.clear_reg cont r
                | None -> ());
                let missing = List.filter (fun r -> E.read_reg cont r = None) c.live_in in
                match missing with
                | _ :: _ ->
                    rollback ();
                    Error
                      (Osr_error.Frame_invalid
                         { func = c.fto.Ir.fname; landing = c.landing; missing })
                | [] ->
                    (* Commit point: from here the transition is final. *)
                    let comp = n_chi - 1 in
                    Telemetry.bump tel stat_fired;
                    Telemetry.add tel stat_comp_instrs comp;
                    Telemetry.remark tel ~pass:"osr" ~func:fname ~instr:site.at (fun () ->
                        Printf.sprintf "transition fired at #%d into %s (|entry comp| = %d)"
                          site.at c.fto.Ir.fname comp);
                    Ok cont)))

  let run_with_osr ?(fuel = 10_000_000) ?(hooks = no_hooks) (machine : E.machine)
      (sites : E.machine gsite list) : (Interp.outcome, Interp.trap) result * osr_outcome =
    if E.fuel machine > fuel then E.set_fuel machine fuel;
    let fname = (E.func machine).Ir.fname in
    let tel = E.telemetry machine in
    (* Direct-indexed site table keyed by instruction id: O(1) per step, one
       guard evaluation per arrival.  Duplicate arming of a point keeps the
       first site, like the List.find_opt it replaces. *)
    let n = List.fold_left (fun acc s -> max acc (s.at + 1)) (E.func machine).Ir.next_id sites in
    let table : E.machine gsite option array = Array.make n None in
    let armed = Bytes.make n '\000' in
    List.iter
      (fun s ->
        if s.at >= 0 && table.(s.at) = None then begin
          table.(s.at) <- Some s;
          Bytes.set armed s.at '\001'
        end)
      sites;
    let aborted = ref [] in
    let abort id (e : Osr_error.t) =
      table.(id) <- None;
      Bytes.set armed id '\000';
      Telemetry.bump tel stat_aborted;
      Telemetry.remark tel ~pass:"osr" ~func:fname ~instr:id (fun () ->
          "transition aborted: " ^ Osr_error.to_string e);
      aborted := { abort_at = id; reason = e } :: !aborted
    in
    let outcome transition = { transition; aborted = List.rev !aborted } in
    let result_of_status () =
      match E.status machine with
      | Interp.Returned ret ->
          Ok
            { Interp.ret; events = List.rev (E.events_rev machine); steps = E.steps machine }
      | Interp.Trapped t -> Error t
      | Interp.Running ->
          raise
            (Osr_error.Error
               (Osr_error.Internal { what = "run_with_osr: finished on a running machine" }))
    in
    (* Guard evaluation is itself guarded: a trap (injected or raised by
       the guard closure) aborts the attempt instead of killing the run. *)
    let guard_decision (site : E.machine gsite) (id : int) : (bool, Osr_error.t) result =
      match hooks.h_guard_trap ~at:id with
      | Some t -> Error (Osr_error.Guard_trap { func = fname; at = id; trap = t })
      | None -> (
          match hooks.h_guard_override ~at:id with
          | Some b -> Ok b
          | None -> (
              match site.guard machine with
              | b -> Ok b
              | exception Interp.Trap t ->
                  Error (Osr_error.Guard_trap { func = fname; at = id; trap = t })
              | exception Osr_error.Error e -> Error e))
    in
    let rec go () =
      match E.run_to_armed machine ~armed with
      | -1 -> (result_of_status (), outcome None)
      | id -> (
          match table.(id) with
          | None -> advance ()
          | Some site -> (
              match guard_decision site id with
              | Error e ->
                  abort id e;
                  go ()
              | Ok false -> advance ()
              | Ok true -> (
                  match fire ~hooks machine site with
                  | Error e ->
                      abort id e;
                      go ()
                  | Ok cont_machine ->
                      (* The continuation already carries the remaining
                         budget (its fuel was derived from the source's);
                         max_int avoids re-clamping it. *)
                      let result = E.run_machine ~fuel:max_int cont_machine in
                      let result =
                        (* Events observed before the transition belong to
                           the activation. *)
                        match result with
                        | Ok o ->
                            Ok
                              {
                                o with
                                Interp.events =
                                  List.rev_append (E.events_rev machine) o.Interp.events;
                                steps = E.steps machine + o.Interp.steps;
                              }
                        | Error _ as e -> e
                      in
                      ( result,
                        outcome
                          (Some
                             {
                               fired_at = id;
                               comp_entry_instrs = site.cont.chi_steps - 1;
                             }) ))))
    and advance () =
      match E.step machine with
      | Interp.Running -> go ()
      | Interp.Returned _ | Interp.Trapped _ -> (result_of_status (), outcome None)
    in
    go ()

  let run_transition_full ?(fuel = 10_000_000) ?(arrival = 0) ?(hooks = no_hooks) ?telemetry
      ~(src : Ir.func) ~(args : int list) ~(at : int) ~(target : Ir.func) ~(landing : int)
      (plan : Reconstruct_ir.plan) :
      (Interp.outcome, Interp.trap) result * osr_outcome =
    let cont = Contfun.generate target ~landing plan in
    let machine = E.create ?telemetry src ~args in
    let seen = ref 0 in
    let guard (_ : E.machine) =
      let hit = !seen = arrival in
      incr seen;
      hit
    in
    run_with_osr ~fuel ~hooks machine [ { at; guard; cont } ]
end

(** The production runtime, on the compiled engine. *)
module Compiled = Make (Engine.Compiled)

(** The reference-interpreter runtime: the differential oracle. *)
module Reference = Make (Engine.Reference)
