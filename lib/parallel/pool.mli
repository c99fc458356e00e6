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

    Per-domain scratch: [run ~scratch] gives each participating domain one
    scratch value, created lazily on its first task of the batch.  Use it
    for the state that must not be shared across domains (an analysis
    context with memo tables, a cloned function index) so the task hot
    path takes no locks. *)

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

val run : t -> ?chunk:int -> scratch:(unit -> 's) -> ('s -> int -> 'a) -> int -> 'a array
(** [run pool ~scratch f n] evaluates [f scratch_of_my_domain i] for every
    [i] in [0 .. n-1] across the pool's domains and returns the results in
    index order.  [chunk] is the number of consecutive indices a domain
    claims per grab (default: a power-of-two sized so each domain gets
    roughly eight grabs).  With [jobs = 1] everything runs inline in the
    caller, in index order, through the same drain-then-raise error path.

    [f] must not touch shared mutable state without its own
    synchronization; everything it needs mutable belongs in the scratch. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent; the pool must not be
    used afterwards. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down afterwards,
    whether [f] returns or raises. *)
