(** A fixed-size Domain work pool with deterministic merge semantics.

    The pool owns [jobs - 1] worker domains (the caller participates as
    worker 0), all spawned once at {!create} and parked on a condition
    variable between batches.  {!run} publishes one batch of tasks; the
    participating domains claim {e chunks} of task indices from a shared
    atomic cursor (the chunked work deque), execute them, and commit each
    result into a slot keyed by the task's index.  Results therefore come
    back in task order no matter which domain ran what, and no matter how
    the scheduler interleaved the chunks — determinism is the correctness
    contract the parallel sweep, pass pipeline and fuzzer build on.

    Error contract: a task that raises never kills a domain and never
    wedges the pool.  The batch always drains (every task runs); at join
    time the error of the {e lowest} failing task index is re-raised,
    wrapped in {!Task_failed} — the same error a [jobs = 1] run of the
    same batch raises, so failure behavior is deterministic too.

    Tasks share what they read: the pool gives a domain no private state.
    Whatever a task reads from several domains at once must not be written
    while the batch runs (the parallel sweep shares one OSR context, which
    is immutable once built); whatever it writes must be its own, such as
    its result slot or a per-task telemetry fork. *)

type t

exception Task_failed of { index : int; exn : exn; backtrace : string }
(** Raised by {!run} after the batch drained: [index] is the lowest failing
    task index, [exn] the exception it raised. *)

val create : ?jobs:int -> unit -> t
(** A pool of [jobs] participating domains ([jobs - 1] spawned workers plus
    the caller).  Default: {!Domain.recommended_domain_count}.  [jobs] is
    clamped to at least 1.  The pool registers an [at_exit] shutdown so a
    forgotten {!shutdown} never hangs process exit. *)

val jobs : t -> int
(** The fixed domain count the pool was created with. *)

val run : t -> ?chunk:int -> (int -> 'a) -> int -> 'a array
(** [run pool f n] evaluates [f i] for every [i] in [0 .. n-1] across the
    pool's domains and returns the results in index order.  [chunk] is the number of consecutive indices a domain
    claims per grab (default: a power-of-two sized so each domain gets
    roughly eight grabs).  With [jobs = 1] everything runs inline in the
    caller, in index order, through the same drain-then-raise error path.

    [f] must not touch shared mutable state without its own
    synchronization. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent; the pool must not be
    used afterwards. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down afterwards,
    whether [f] returns or raises. *)
