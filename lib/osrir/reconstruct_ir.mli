open Import

(** Algorithm 1 over SSA (Section 5.2): build the compensation plan that
    materializes every destination value live at the OSR landing point from
    values available in the source frame.  Includes the constant-φ
    identification and replace-alias reuse of Section 5.4, the
    no-intervening-store load guard of Section 5.3, the iteration-
    consistency guard (DESIGN.md, "Deviations and findings"), and the
    gating-function extension of Section 9. *)

type variant =
  | Live  (** read only source registers live at the origin *)
  | Avail
      (** also read registers whose definition dominates the origin,
          accumulating the keep set [K_avail] of Table 3 *)

(** Ablation switches (benchmarked by [bench/main.exe ablate]). *)
type config = {
  constant_phi : bool;  (** Section 5.4 constant-φ identification *)
  use_aliases : bool;  (** value equivalences from replace actions *)
  gating : bool;  (** Section 9: rebuild two-way φs as selects *)
}

val default_config : config

exception Undef of Ir.reg
(** Algorithm 1's [throw undef]. *)

type comp_instr = { target : Ir.reg; rhs : Ir.rhs }
(** One compensation instruction: register operands refer to transferred or
    earlier-compensated destination registers. *)

type plan = {
  transfers : (Ir.reg * Ir.value) list;
      (** destination register ← source value, applied first as an atomic
          snapshot of the source frame *)
  comp : comp_instr list;  (** executed in order after the transfers *)
  keep : Ir.reg list;
      (** source registers the [Avail] variant reads although they are not
          live at the origin *)
}

val comp_size : plan -> int
val plan_is_empty : plan -> bool

(** The state of one OSR point pair: the plan under construction, plus
    what is resolved once per point (the source point's environment and the
    load-safety verdicts for the landing).  A state serves one
    [(src_point, landing)] pair at a time; {!retarget} moves it to the
    next, so a sweep reuses its tables. *)
type state

val fresh_state : Osr_ctx.t -> src_point:int -> landing:int -> state

val retarget : state -> src_point:int -> landing:int -> unit
(** Move the state to another point pair, with an empty plan. *)

val build : ?config:config -> variant -> state -> Ir.reg -> Ir.value
(** Resolve one destination register, extending the state's plan; returns
    the value consumers should use for it.
    @raise Undef when the register defeats reconstruction, or is not a
    register of the destination function *)

val plan_of_state : state -> plan
(** The plan built so far. *)

val both :
  ?config:config -> state -> Ir.reg list -> (plan, Ir.reg) result * (plan, Ir.reg) result
(** Both variants as [(live, avail)] for the given destination registers,
    usually from a single build: an [Avail] failure implies a [Live]
    failure, and an [Avail] plan with an empty keep set is the [Live] plan
    verbatim.  Each variant starts from an empty plan (the state's own plan
    is dropped) and shares the state's point environment and load
    verdicts. *)

val both_at_landing :
  ?config:config -> state -> (plan, Ir.reg) result * (plan, Ir.reg) result
(** {!both} over every destination register live at the state's landing
    point, in name order. *)

val for_point_both :
  ?config:config ->
  Osr_ctx.t ->
  src_point:int ->
  landing:int ->
  (plan, Ir.reg) result * (plan, Ir.reg) result
(** {!both} over every destination register live at the landing point. *)

val eval_plan :
  plan -> src_frame:Interp.frame -> memory:Interp.memory -> (Interp.frame, Ir.reg) result
(** Evaluate a plan against a source frame, producing the landing frame —
    [[[c]](σ)] of Definition 3.1 at IR level.  Loads read the shared
    memory (sound by the store invariant of Section 5.3). *)
