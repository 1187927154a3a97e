(** Engine self-profiler: named wall-clock phase sections.

    A profiler is a registry of spans allocated once (typically at
    {!Doall_sim.Engine.Make.create} time) and entered/left from the
    simulation hot path. Like {!Probe}, every record operation is O(1)
    and guarded by a single branch on the span's cached [enabled] flag,
    fixed at creation: profiling a disabled span is a read of one
    immutable boolean and a conditional jump — no clock call, no
    allocation. Spans read the clock and never feed back into the
    simulation, so metrics and RNG streams are bit-identical with
    profiling on, off, or absent (pinned by [test/test_span.ml]).

    Totals are seconds of [CLOCK_MONOTONIC] time, read through a
    noalloc untagged C stub ([doall_clock.c]) at ~20ns per read —
    machine-dependent like [Runner.result.wall_s] and excluded from
    every determinism comparison. Counts (enters per span) are
    deterministic: they follow the simulation structure, not the
    clock.

    The engine's span catalogue (docs/OBSERVABILITY.md): [deliver],
    [algo_step], [adversary], [bcast_maint], [oracle]. *)

type t

val create : ?enabled:bool -> unit -> t
(** A fresh, empty registry. [enabled] defaults to [true]; a profiler
    created with [~enabled:false] accepts registrations but drops every
    enter/leave at the cost of one branch. The flag is immutable. *)

val enabled : t -> bool

type span

val span : t -> string -> span
(** Registers (or retrieves) the span named [name]. Registering the
    same name twice returns the same span. *)

val enter : span -> unit
(** Starts timing. Nested enters of the {e same} span are not
    supported: a second [enter] before [leave] restarts the section. *)

val leave : span -> unit
(** Stops timing: adds the elapsed wall-clock to the span's total and
    increments its count. A [leave] without a matching [enter] is
    ignored (the open-timestamp sentinel guards it). *)

val shift : span -> span -> unit
(** [shift a b] is [leave a; enter b] with a single clock read: the
    one timestamp both closes [a] and opens [b], so consecutive phases
    cost one read per transition instead of two. What the engine's
    per-step deliver -> algo_step -> bcast_maint chain uses. *)

val time : span -> (unit -> 'a) -> 'a
(** [time sp f] runs [f ()] inside [enter]/[leave], exception-safe.
    Convenience for call sites off the hot path. *)

type snapshot = (string * (float * int)) list
(** [(name, (total_s, count))], sorted by name — so two snapshots of
    identically phased runs compare structurally once the
    machine-dependent [total_s] fields are projected away. *)

val snapshot : t -> snapshot
(** Totals and counts of every registered span. A disabled profiler
    snapshots to registered-but-zero spans. *)

val total : snapshot -> float
(** Sum of every span's [total_s] — the profiled fraction of the run. *)
