open Import

(** Continuation-function generation (Section 5.4): the OSR transition is
    modeled as a call transferring the live state to [f'to], a
    specialization of the target version whose entry block executes the
    compensation code before control flows to the landing instruction.
    Construction: split the landing block, demote the crossing registers to
    one-cell allocas, synthesize the entry, drop unreachable blocks, and
    re-promote with mem2reg — the result verifies under standard SSA
    rules.

    A continuation is built once and may fire many times.  Everything a
    firing needs that [f'to] alone determines is computed once: χ's extent
    and memory effect at [generate], the compiled program on the first
    firing on the compiled engine (see {!Tinyvm.Compile.cached}).

    Invariant: [fto] is never mutated after [generate].  The compiled
    program is a snapshot of it, and [chi_steps] and [chi_writes_memory]
    describe it; a caller that wants a changed [f'to] clones it
    ([Ir.clone_func]) and builds its own machine from the clone. *)

type t = private {
  fto : Ir.func;
  param_sources : Ir.value list;
      (** for each parameter of [fto], the source-side value the caller
          must pass (a register of the source frame, or a constant) *)
  landing : int;  (** the landing instruction id, unchanged in [fto] *)
  live_in : Ir.reg list;
      (** registers of [fto] live into [landing] — the definedness
          obligation the runtime validates before committing a
          transition *)
  chi_steps : int;
      (** steps of χ, [fto]'s entry block: its body and its terminator.
          No edge re-enters the entry block of a verified function, so
          after these steps a run of [fto] has landed. *)
  chi_writes_memory : bool;
      (** χ holds a [store] or an [alloca] (which moves [brk]); the only
          instructions of χ that change memory *)
  compiled : Tinyvm.Compile.cached;
      (** [fto] and its compiled program, compiled on first use *)
}

val param_prefix : string
(** Prefix of the transfer parameters ([osr$]). *)

val generate : ?promote:bool -> Ir.func -> landing:int -> Reconstruct_ir.plan -> t
(** Generate [f'to] for a transition into the function at instruction
    [landing], running [plan] on entry.  [promote:false] returns the raw
    demoted form (for inspection).
    @raise Osr_error.Error ([No_such_point]) if [landing] is not an
    instruction of the function *)
