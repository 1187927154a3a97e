(** The simulation loop: algorithm instances x network x adversary.

    Implements the model of computation of Section 2 faithfully:

    - Global time advances in units equal to the smallest possible gap
      between consecutive clock ticks of any processor; within one unit,
      each scheduled processor completes exactly one local step, so a
      processor takes at most [d] local steps during any window of
      duration [d] — the property the lower-bound stages rely on.
    - A step costs one unit of work whether or not it performs a task
      (the charged measure of [10,14], adopted by the paper).
    - Message deliveries land in a processor's hands when that processor
      next steps at or after the adversarial due time; a delayed
      processor processes nothing.
    - The run ends at [sigma]: the first instant at which every task has
      been performed and at least one live processor locally knows it
      (Definition 2.1). A safety cap guards against non-terminating
      combinations; hitting it is reported, never masked.
    - Beyond the paper's model, an adversary may carry a fault policy
      (message drop / duplication / reorder) and a restart policy
      (crash-recovery with reset state) — see docs/FAULTS.md. Both are
      optional fields costing one branch when absent, so the faithful
      reliable-network mode is bit-identical to before they existed.

    Use {!Make} for a statically-known algorithm, or {!run_packed} with a
    first-class module (how the experiment catalog instantiates algorithm
    families parameterized by permutation lists). *)

module Make (A : Algorithm.S) : sig
  type t

  val create :
    ?probe:Probe.t ->
    ?spans:Span.t ->
    ?check:bool ->
    Config.t ->
    d:int ->
    adversary:Adversary.t ->
    t
  (** Builds initial states for all [p] processors.
      [0 <= d <= Msg_ring.max_due], else [Invalid_argument]; [d = 0] is
      treated as [d = 1] (a message needs at least one time unit).

      [?probe] attaches an observability probe (default: a private
      disabled one). The engine registers its instrument catalogue —
      fresh/redundant execution counters and per-tick series, the
      in-flight message gauge/series, the delivery-latency and
      multicast-fan-out histograms, the drop/duplicate fault counters,
      and per-pid delayed/idle step vectors (see docs/OBSERVABILITY.md)
      — and records into them only behind a single branch per site, so
      a disabled or absent probe leaves metrics and RNG streams
      bit-identical (pinned by [test/test_obs.ml]).

      [?spans] attaches a wall-clock self-profiler (default: a private
      disabled one). The engine registers its phase catalogue —
      [deliver], [algo_step], [adversary], [bcast_maint], [oracle] —
      and brackets each section with {!Span.enter}/{!Span.leave} behind
      the same cached-enabled-flag trick, so a disabled or absent
      profiler costs one branch per site and never reads the clock.
      Span totals are machine-dependent; span {e counts} are
      deterministic (pinned by [test/test_span.ml]).

      [?check:true] attaches the invariant oracle ({!Oracle}): every
      tick and every step are audited and the first violated invariant
      raises {!Oracle.Invariant_violation}. The oracle only reads, so
      checked runs produce bit-identical metrics — the golden grid runs
      entirely with [check:true]. *)

  val run : ?max_time:int -> t -> Metrics.t
  (** Runs to [sigma] or to [max_time]. The default cap is generous
      enough for any of the paper's algorithms to finish solo. Either
      cap is clamped to [Msg_ring.max_due - d], so no message is ever
      due past the ring cap: at [d = Msg_ring.max_due] no tick runs, and
      a run that needs more time than the clamp allows ends capped
      ([completed = false]). *)

  val state : t -> int -> A.state
  (** Direct access to a processor's live state (tests, adversaries). *)

  val trace : t -> Trace.t
  (** Empty unless the config set [record_trace]. *)

  val global_done : t -> Bitset.t
  (** The engine's ledger of globally performed tasks. *)

  val checker : t -> Oracle.t option
  (** The attached invariant oracle, when created with [~check:true] —
      lets tests assert (via {!Oracle.ticks_checked}) that auditing
      actually happened. *)
end

val run_packed :
  Algorithm.packed ->
  Config.t ->
  d:int ->
  adversary:Adversary.t ->
  ?max_time:int ->
  ?probe:Probe.t ->
  ?spans:Span.t ->
  ?check:bool ->
  unit ->
  Metrics.t
(** One-shot convenience around {!Make}. *)

val run_traced :
  Algorithm.packed ->
  Config.t ->
  d:int ->
  adversary:Adversary.t ->
  ?max_time:int ->
  ?probe:Probe.t ->
  ?spans:Span.t ->
  ?check:bool ->
  unit ->
  Metrics.t * Trace.t
(** Like {!run_packed} but also returns the trace (forces recording). *)
