(** In-run instrumentation: named counters, gauges, log-bucketed
    histograms, per-pid vectors and per-tick series.

    A probe is a registry of instruments allocated once (typically at
    {!Doall_sim.Engine.Make.create} time) and recorded into from the
    simulation hot path. Every record operation is O(1) and guarded by a
    single branch on the probe's [enabled] flag, fixed at creation:
    recording into a disabled probe is a read of one immutable boolean
    and a conditional jump, nothing else. Probes draw no randomness and
    never feed back into the simulation, so metrics and RNG streams are
    bit-identical with probes on, off, or absent — pinned by
    [test/test_obs.ml].

    Instruments are identified by name within their probe; registering
    the same name twice returns the same instrument. Instruments hold
    plain mutable ints and are {e not} thread-safe: a probe must be
    owned by a single run (the grid runner creates one probe per cell,
    never sharing across domains). *)

type t

val create : ?enabled:bool -> unit -> t
(** A fresh, empty registry. [enabled] defaults to [true]; a probe
    created with [~enabled:false] accepts registrations but drops every
    record, at the cost of one branch. The flag is immutable. *)

val enabled : t -> bool

(** {1 Instruments} *)

type counter

val counter : t -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit

val counter_value : counter -> int
(** Current value (0 if the probe is disabled). *)

type gauge
(** Tracks the last value set and the maximum ever set. *)

val gauge : t -> string -> gauge
val set : gauge -> int -> unit

type histogram
(** Power-of-two log-bucketed histogram of non-negative ints: bucket 0
    holds values [<= 0]; bucket [i >= 1] holds values in
    [[2^(i-1), 2^i - 1]]. Also tracks count, sum, and max exactly. *)

val histogram : t -> string -> histogram
val observe : histogram -> int -> unit

val observe_n : histogram -> int -> int -> unit
(** [observe_n h v n] records [n] observations of [v] in one update —
    equivalent to calling [observe h v] [n] times. Record sites that see
    runs of equal values (e.g. per-message delivery deltas under a
    constant-delay adversary) batch them with this to keep the
    per-event cost to a compare-and-count. No-op when [n <= 0]. *)

type vector
(** A named dense [int array], typically indexed by pid. *)

val vector : t -> string -> len:int -> vector
(** Re-registering an existing name with a different [len] raises
    [Invalid_argument]. *)

val vincr : vector -> int -> unit

type series
(** An append-only time series of [(time, value)] samples. *)

val series : t -> string -> series

val sample : series -> time:int -> int -> unit
(** Appends a sample. Amortized O(1) (growable backing array). *)

(** {1 Snapshots} *)

type histogram_snapshot = {
  count : int;
  sum : int;
  max : int;
  buckets : (int * int) list;
      (** [(bucket_index, count)], nonzero buckets only, ascending; see
          {!histogram} for bucket bounds. *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * (int * int)) list;  (** name, (last, max) *)
  histograms : (string * histogram_snapshot) list;
  vectors : (string * int array) list;
  series : (string * (int * int) array) list;
}
(** All association lists sorted by name, so snapshots of identically
    instrumented runs compare with structural equality. *)

val snapshot : t -> snapshot
(** A deep copy: later records do not mutate an earlier snapshot. A
    disabled probe snapshots to registered-but-zero instruments. *)

val bucket_bounds : int -> int * int
(** [(lo, hi)] of a bucket index, inclusive; bucket 0 is [(0, 0)]. *)

val percentile : histogram_snapshot -> float -> int * int
(** [percentile h q] locates the rank-[ceil q*count] observation
    (q clamped to [0,1]) in the log buckets and returns the tightest
    interval the buckets can certify: the containing bucket's
    [bucket_bounds], with the upper bound capped at the observed [max].
    Exact to bucket resolution — deterministic, no interpolation. The
    empty histogram yields [(0, 0)]. *)
