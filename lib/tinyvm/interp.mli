(** TinyVM: an interpreter for MiniIR with a step-wise machine API, the
    stand-in for the paper's OSRKit/TinyVM artifact.  The OSR layer drives
    a {!machine} instruction by instruction, so a transition can fire at
    any program point, transfer the live frame, and resume in another
    function version. *)

module Ir = Miniir.Ir

type trap =
  | Division_by_zero of int  (** instruction id *)
  | Shift_out_of_range of int  (** instruction id; the amount is outside [\[0, 62\]] *)
  | Undef_read of int
  | Unknown_intrinsic of string * int
  | Unreachable_reached of string  (** block label *)
  | No_such_block of string
  | Bad_arity of string
  | Fuel_exhausted of int  (** steps executed when the budget ran out *)

val pp_trap : Format.formatter -> trap -> unit

val binop_trap : Ir.binop -> int -> trap
(** The trap of a binop {!Passes.Fold.binop} leaves undefined, at
    the given instruction id: {!Shift_out_of_range} for a shift, else
    {!Division_by_zero}. *)

type event = { callee : string; arg_values : int list }
(** One observable (impure-intrinsic) call. *)

val equal_event : event -> event -> bool

(** Observable result of a run.  Two traps are observationally equal
    regardless of machine state — aborting executions have undefined
    semantics in the paper's framework (Definition 2.4). *)
type outcome = { ret : int; events : event list; steps : int }

type memory
(** Linear memory with a bump allocator, the one state an OSR transition
    shares between versions (the store invariant of Section 5.3).  A cell
    never written reads 0, so a load cannot tell it from a stored 0.
    Cells at addresses in [\[0, 2^22)] are kept in 256-word pages, each
    allocated on the first store to it; other addresses (negative, or at
    least 2^22) in a hash table.  Only this module knows the format. *)

val fresh_memory : unit -> memory
(** Empty memory: every cell reads 0 and [brk] is 1024. *)

val mem_load : memory -> int -> int
(** The cell at an address; 0 when it was never written.  Allocates
    nothing. *)

val mem_store : memory -> int -> int -> unit

val mem_alloca : memory -> int -> int
(** [mem_alloca m n] returns [brk] and bumps it by [max 1 n] cells. *)

val mem_brk : memory -> int
(** The next address {!mem_alloca} returns. *)

type mem_snapshot
(** A copy of a memory's cells and [brk]. *)

val mem_snapshot : memory -> mem_snapshot

val mem_restore : memory -> mem_snapshot -> unit
(** Put the memory back as it was at the snapshot, in place, so every
    machine sharing it sees the restored cells; a snapshot can be
    restored more than once. *)

val mem_cells : memory -> (int * int) list
(** The cells that read non-zero, by ascending address. *)

type frame = (Ir.reg, int) Hashtbl.t
(** Virtual-register environment of one activation. *)

type status = Running | Returned of int | Trapped of trap

type machine = {
  func : Ir.func;
  frame : frame;
  memory : memory;
  mutable cur_block : Ir.block;
  mutable cur_body : Ir.instr array;  (** the current block's body, cached as an array *)
  mutable idx : int;  (** index into [cur_body] *)
  mutable status : status;
  mutable steps : int;
  mutable fuel_stop : int;
      (** absolute [steps] value at which execution traps [Fuel_exhausted];
          [max_int] = unlimited.  Prefer [fuel_left]/[set_fuel]. *)
  mutable events : event list;  (** reversed *)
  bodies : (string, Ir.instr array) Hashtbl.t;  (** per-block body-array cache *)
  blocks : (string, Ir.block) Hashtbl.t;  (** label → block (first occurrence) *)
  tel : Telemetry.sink;  (** step / event / trap statistics go here *)
}

val stat_steps : Telemetry.counter
(** The shared `interp.*` statistics counters; the compiled engine bumps
    the same ones so `--stats` is engine-independent. *)

val stat_events : Telemetry.counter
val stat_returns : Telemetry.counter
val stat_traps : Telemetry.counter

exception Trap of trap

val create :
  ?memory:memory ->
  ?telemetry:Telemetry.sink ->
  ?fuel:int ->
  Ir.func ->
  args:int list ->
  machine
(** Fresh machine at the function's entry.  Passing [memory] shares state
    with another machine — how OSR transitions keep the store invariant.
    [telemetry] (default {!Telemetry.null}) receives step, event and trap
    counters.  [fuel] (default unlimited) bounds the number of steps the
    machine may ever execute; exhaustion traps with [Fuel_exhausted]
    instead of looping forever.
    @raise Trap on an argument-count mismatch *)

val step : machine -> status
(** Execute one instruction or terminator (φ-nodes run at block entry). *)

val current_point : machine -> int
(** The machine's current program point: the id of the instruction or
    terminator it will execute next, or [-1] once it has stopped.  Allocates
    nothing, so a run loop can ask it every step. *)

val next_instr_id : machine -> int option
(** {!current_point} as an option: [None] once the machine has stopped. *)

val fuel_left : machine -> int
(** Remaining step budget ([max_int] = unlimited). *)

val set_fuel : machine -> int -> unit
(** Grant [n] further steps from the machine's current position. *)

(** The step core both engines expose: enough to create, pause, resume
    and observe a machine. *)
module type STEP = sig
  type machine

  val create :
    ?memory:memory -> ?telemetry:Telemetry.sink -> ?fuel:int -> Ir.func -> args:int list -> machine
  (** Fresh machine at the function's entry; see {!val:create}.
      @raise Trap on an argument-count mismatch *)

  val step : machine -> status
  (** Execute one instruction or terminator. *)

  val current_point : machine -> int
  (** The current program point; [-1] once the machine has stopped.
      Allocates nothing. *)

  val next_instr_id : machine -> int option
  (** The current program point; [None] once the machine has stopped. *)

  val steps : machine -> int

  val fuel : machine -> int
  (** Remaining step budget ([max_int] = unlimited). *)

  val set_fuel : machine -> int -> unit
  (** Grant [n] further steps; saturates at unlimited, never overflows. *)

  val events_rev : machine -> event list
  (** Observable events so far, most recent first. *)
end

(** Whole-run drivers over a step core. *)
module type RUN = sig
  type machine

  val run_machine : ?fuel:int -> machine -> (outcome, trap) result
  (** Run to completion.  [fuel] (default 10M) further clamps the
      machine's remaining budget; past it the run terminates with
      [Error (Fuel_exhausted _)] — never an exception. *)

  val run :
    ?fuel:int ->
    ?memory:memory ->
    ?telemetry:Telemetry.sink ->
    Ir.func ->
    args:int list ->
    (outcome, trap) result
  (** One-shot execution: [create] then [run_machine]; an argument-count
      mismatch is [Error (Bad_arity _)]. *)

  val run_to_point : ?fuel:int -> ?skip:int -> machine -> point:int -> machine option
  (** Run until the machine is about to execute [point] (after [skip]
      earlier arrivals); [None] when never reached.  Used to set up OSR
      sources and debugger breakpoints. *)

  val run_to_armed : machine -> armed:Bytes.t -> int
  (** Step until the machine is about to execute a point [p] whose byte in
      [armed] is not ['\000'] and return [p], or return [-1] once the
      machine has stopped; a point outside [armed] is never armed.  The
      OSR runtime's loop between armed points. *)
end

module Run (M : STEP) : RUN with type machine := M.machine
(** The one run loop: both engines derive their drivers from it. *)

include RUN with type machine := machine

val equal_result : (outcome, trap) result -> (outcome, trap) result -> bool
(** Observable equality: equal returns and event traces; any trap equals
    any trap. *)

val pp_result : Format.formatter -> (outcome, trap) result -> unit
