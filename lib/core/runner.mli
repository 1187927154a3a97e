(** Wiring: named algorithms x named adversaries x (p, t, d) -> metrics.

    The registries give the CLI, the examples, the tests and the
    benchmark one shared vocabulary. Adversary constructors are
    invoked per run because the lower-bound adversaries are stateful.

    {1 Thread-safety contract}

    {!run_grid} fans runs across a {!Doall_sim.Pool} of domains, so
    everything a single run touches must be per-run state:

    - [adv_spec.instantiate] is called once {e per run, from the worker
      domain that executes the run}, and must return an adversary whose
      mutable state is fresh and unshared (stateless adversaries such as
      [Adversary.fair] may be returned shared). All built-in adversaries
      satisfy this; so must registered ones.
    - [algo_spec.make] is likewise called once per run from the worker
      domain and must return a packed module whose [init] builds
      per-processor state only from the run's [Config]. Internal memo
      tables must be guarded (the DA(q) searched-list cache, see
      [lib/core/algo_da.ml]) or kept per domain (PaDet's default
      list, see [lib/core/algo_pa.ml]).
    - {!register_algorithm} is safe to call from any domain, but
      registration racing a live grid would let some runs of that grid
      see the algorithm and others not; register at startup, before
      launching grids (the CLI does).

    Each run builds its own [Config] and derives every [Rng] stream from
    the run's seed, so results are bit-identical for any [?jobs],
    including [1] — pinned by [test/test_pool.ml]. *)

open Doall_sim

type algo_spec = {
  algo_name : string;
  doc : string;
  make : unit -> Algorithm.packed;
  deterministic : bool;
      (** true when the algorithm draws no coins (DA, PaDet, trivial) *)
  liveness : [ `Any_survivor | `Needs_quorum ];
      (** [`Any_survivor]: terminates whenever at least one processor
          keeps taking steps (the paper's standard condition).
          [`Needs_quorum]: additionally requires a quorum of processors
          to keep taking steps (e.g. {!Doall_quorum.Algo_awq}); under
          quorum-killing adversaries such runs honestly fail to
          complete. *)
}

type adv_spec = {
  adv_name : string;
  adv_doc : string;
  instantiate : p:int -> t:int -> d:int -> Adversary.t;
}

val register_algorithm : algo_spec -> unit
(** Add (or replace) an externally provided algorithm; built-in names are
    protected ([Invalid_argument]). Used by [Doall_quorum.Register]. *)

val all_algorithms : unit -> algo_spec list
(** The built-ins (trivial, paran1, paran2, padet, coord, da-q2 ..
    da-q8) plus everything registered so far. *)

val adversaries : adv_spec list
(** fair, max-delay, uniform-delay, batch, solo, round-robin,
    harmonic, random-half, laggard, lb-det, lb-rand, lb-rand-random,
    partition, churn, stragglers, crash-half, crash-all-but-one,
    crash-staggered — plus the beyond-the-model chaos adversaries of
    docs/FAULTS.md: lossy-half, lossy-all, dup-storm, flaky-restart,
    chaos. Every chaos adversary keeps pid 0 permanently alive, so all
    registry algorithms terminate under them (pinned by
    [test/test_faults.ml], including at 100% message loss). The
    shared-channel contention adversaries chan-ordered,
    chan-ordered-high, chan-rotor, chan-delayed and chan-delayed-ordered
    are also registered; their contention rules only bite on a channel
    transport — on point-to-point they degenerate to [fair].

    23 entries are one-phase {!Doall_adversary.Strategy} rows: [instantiate]
    sizes the phase from p, t and d, compiles it with
    {!Doall_adversary.Strategy.into} and renames the result, so
    [strategy:<spec>] with the instantiated spec runs the same
    adversary. Five stay code: lb-det, lb-rand and lb-rand-random
    (stateful omniscient constructions), crash-staggered (its rule may
    crash pid 0) and chan-rotor (a rotating grant at offset 1). The
    docs/FAULTS.md registry table gives every entry's spec form. *)

val find_algo : string -> algo_spec
(** Raises [Failure] with a message listing known names. *)

val find_adv : string -> adv_spec
(** Registry lookup, plus one dynamic family: a name of the form
    ["strategy:<spec>"] compiles the {!Doall_adversary.Strategy} DSL
    spec into an adversary on the spot — every runner entry point (and
    through them the CLI's [--adv], the experiment contexts and their
    memo caches) accepts synthesized strategies transparently. Raises
    [Failure] on unknown names and unparsable specs. *)

type result = {
  metrics : Metrics.t;
  algo : string;
  adv : string;
  seed : int;
  wall_s : float;
      (** wall-clock of the simulation itself (engine run only, not
          registry lookup or adversary construction) — the per-cell
          timing column of exported grid results. Machine-dependent:
          excluded from all determinism comparisons. *)
  obs : Probe.snapshot option;
      (** final probe snapshot when the run was instrumented (an
          enabled [?probe] was passed, or [run_grid ~probes:true]);
          [None] otherwise. *)
  spans : Span.snapshot option;
      (** final self-profiler snapshot when the run was profiled
          ([?profile:true]): per-phase wall-clock totals and enter
          counts for the engine's [deliver] / [algo_step] / [adversary]
          / [bcast_maint] / [oracle] sections (docs/OBSERVABILITY.md).
          Totals are machine-dependent like [wall_s]; counts are
          deterministic. [None] when not profiled. *)
}

type run_spec = {
  spec_algo : string;
  spec_adv : string;
  p : int;
  t : int;
  d : int;
  seed : int;
  transport : Config.transport;
      (** which network backend the cell runs on; [Config.Ptp] is the
          paper's reliable point-to-point model, the channel variants
          are the shared-medium extension of docs/MODEL.md *)
}
(** One cell of an experiment grid, by registry name. *)

exception Run_timeout of { spec : run_spec; metrics : Metrics.t }
(** Raised by {!run} when the run hits its time cap without
    completing; {!run_traced} and {!run_spec} never raise it and report
    a capped run through [metrics.completed = false]. Carries the full partial metrics (work,
    messages, executions, per-processor work so far; [sigma] is the cap
    time and [completed] is false) so callers can report how far the
    run got instead of discarding it. A printable form is installed via
    [Printexc.register_printer]. *)

val sim_count : unit -> int
(** Process-wide number of engine runs started through the runner (any
    entry point, any domain). Deltas of this counter let tests assert
    that memoized experiment cells simulate exactly once. *)

val run :
  ?seed:int ->
  ?max_time:int ->
  ?probe:Probe.t ->
  ?profile:bool ->
  ?check:bool ->
  ?faults:Adversary.faults ->
  ?transport:Config.transport ->
  algo:string ->
  adv:string ->
  p:int ->
  t:int ->
  d:int ->
  unit ->
  result
(** One simulation. Raises {!Run_timeout} (with the partial metrics) if
    the run hits its time cap without completing — under a reliable
    network that would be an algorithm bug, under injected faults it can
    be honest behaviour worth reporting either way.
    [?probe] is handed to {!Doall_sim.Engine.Make.create}; its final
    snapshot is also stored in [result.obs] when enabled.
    [?profile:true] attaches a fresh {!Span.t} self-profiler to the
    engine and stores its snapshot in [result.spans].
    [?check:true] turns on the invariant oracle
    ({!Doall_sim.Oracle}) for the whole run. [?faults] overlays a
    message-fault policy on the named adversary (the CLI's [--faults]).
    [?transport] (default [Config.Ptp]) selects the network backend;
    channel runs reject [?faults] ([Invalid_argument], see
    {!Doall_sim.Engine}). *)

val run_traced :
  ?seed:int ->
  ?max_time:int ->
  ?probe:Probe.t ->
  ?profile:bool ->
  ?check:bool ->
  ?faults:Adversary.faults ->
  ?transport:Config.transport ->
  algo:string ->
  adv:string ->
  p:int ->
  t:int ->
  d:int ->
  unit ->
  result * Trace.t
(** {!run} with the trace recorded. A capped run is reported through
    [metrics.completed = false], as by {!run_spec}, not by raising
    {!Run_timeout}: the partial trace is returned with it. *)

(** {1 Parallel grids} *)

exception Grid_incomplete of run_spec list
(** Raised by {!run_grid} when runs hit the [max_time] cap without
    completing: the full list of capped cells, never a silent partial
    result. A printable form is installed via
    [Printexc.register_printer]. *)

val spec :
  ?seed:int ->
  ?transport:Config.transport ->
  algo:string ->
  adv:string ->
  p:int ->
  t:int ->
  d:int ->
  unit ->
  run_spec

val spec_name : run_spec -> string
(** ["algo/adv/pP/tT/dD/seedS"], for tables and error messages.
    Non-point-to-point cells get an ["@transport"] suffix; [Ptp] cells
    keep the historical unsuffixed form, so pre-transport golden pins
    stay byte-identical. *)

val grid :
  ?seeds:int list ->
  ?transport:Config.transport ->
  algos:string list ->
  advs:string list ->
  points:(int * int * int) list ->
  unit ->
  run_spec list
(** Cross product [algos x advs x (p, t, d) points x seeds] (seeds
    default [[0]]), in row-major order: the order {!run_grid} returns
    results in. All cells share the [?transport] (default [Ptp]). *)

val run_spec :
  ?max_time:int ->
  ?probe:Probe.t ->
  ?profile:bool ->
  ?check:bool ->
  ?faults:Adversary.faults ->
  run_spec ->
  result
(** Run one cell in the calling domain. Unlike {!run}, a capped run is
    reported through [metrics.completed = false], not an exception. *)

val run_grid :
  ?jobs:int ->
  ?pool:Pool.t ->
  ?max_time:int ->
  ?probes:bool ->
  ?profile:bool ->
  ?check:bool ->
  ?faults:Adversary.faults ->
  ?on_cell:(finished:int -> total:int -> result -> unit) ->
  run_spec list ->
  result list
(** Runs every cell and returns results in submission order. [?pool]
    reuses an existing pool; otherwise a transient pool of [?jobs]
    domains (default [Pool.default_jobs ()]) is created for the call.
    Results are byte-identical for every [jobs >= 1] because all per-run
    state ([Config], [Rng] streams, algorithm instances, adversary
    state) is built inside the run — see the thread-safety contract
    above. Raises {!Grid_incomplete} if any run hit [max_time].

    [~probes:true] instruments every cell with its own fresh
    {!Probe.t} (never shared across domains) and stores the final
    snapshot in [result.obs]; snapshots are as deterministic as the
    metrics, so they too are identical at every [jobs].

    [~profile:true] likewise attaches a fresh {!Span.t} per cell and
    stores the phase snapshot in [result.spans]; span counts share the
    probes' determinism, span totals do not (wall clock).

    [?check] turns on the invariant oracle in every cell; [?faults]
    overlays one fault policy on every cell's adversary. Both default
    to off, leaving grids bit-identical to before these existed.

    [?on_cell] is a progress callback invoked once per finished cell,
    {e in completion order}, with the number of cells finished so far
    and the grid total; invocations are serialized by an internal
    mutex but may come from any worker domain, so the callback must
    not touch domain-local state. The CLI uses it to render live
    [k/n cells, ETA] lines on stderr. *)
