(** Fixed-size domain pool for embarrassingly parallel experiment grids.

    A pool owns [jobs - 1] worker {!Domain}s pulling thunks from one
    shared queue guarded by a [Mutex]/[Condition] pair; the submitting
    domain works the queue too while it waits, so a pool of size [jobs]
    applies [jobs] cores to a batch. Batches return their results in
    {e submission order}, regardless of which worker ran which element
    or in what order they finished — the property that lets
    [Doall_core.Runner.run_grid] stay bit-deterministic under any level
    of parallelism.

    Exception semantics are deterministic as well: every element of a
    batch is always run to completion (a failure does not cancel its
    siblings), and if any elements raised, the exception of the
    {e lowest-indexed} failing element is re-raised — so a batch either
    returns all results or fails identically no matter how many domains
    served it.

    Thread-safety contract for callers: the function passed to
    {!map} is called from worker domains, possibly
    concurrently with itself. It must only touch state it owns (per-call
    state, or data it was handed in its argument). All of
    [Doall_core.Runner]'s run descriptors satisfy this: each run builds
    its own [Config], [Rng] streams, algorithm instances and adversary
    state from scratch. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the parallelism the runtime
    suggests for this machine. *)

val create : ?jobs:int -> unit -> t
(** A pool of [jobs] (default {!default_jobs}; clamped to [>= 1])
    domains' worth of parallelism: [jobs - 1] spawned workers plus the
    submitting domain. [~jobs:1] spawns nothing and runs every batch
    inline, sequentially — useful as the baseline arm of speedup
    measurements. *)

val jobs : t -> int
(** The parallelism the pool was created with. *)

(** {1 Observability}

    Live counters for progress displays and the grid runner's
    instrumentation; neither affects scheduling. *)

val queue_depth : t -> int
(** Tasks submitted but not yet picked up by any domain (taken under
    the pool's mutex, so exact at the instant of the call). *)

val jobs_completed : t -> int array
(** Per-domain-slot completed-task counts, length {!jobs}: slot [0] is
    the submitting domain, slots [1..jobs-1] the spawned workers. Each
    slot has a single writer; reading concurrently with a running batch
    may observe counts mid-update (momentarily stale, never torn). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element of [xs] across the
    pool and returns the results in the order of [xs]. Safe to call
    repeatedly; concurrent batches from different domains are also safe
    (their elements interleave in the queue). *)

val shutdown : t -> unit
(** Signals the workers to exit and joins them. Idempotent. Calling
    {!map} after [shutdown] raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ?jobs f] = create, run [f], always shutdown. *)

val run : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot [with_pool]: spin up, map, tear down. *)
