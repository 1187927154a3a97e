(** Concrete task payloads over the abstract Do-All machinery.

    The simulation deals in task {e ids}; real deployments deal in task
    {e effects}. This module binds the two: a workload maps each id to a
    computation, and a {!Journal} replays an engine {!Doall_sim.Trace}
    against the workload, executing each recorded performance and
    {b verifying the model's idempotence requirement end-to-end} — every
    task executed at least once, and re-executions (which adversarial
    schedules guarantee) producing results equal to the first.

    The payloads here are deterministic on purpose: Section 2.4 requires
    that "the results of multiple task executions are always the same",
    and the journal turns that requirement into a checked property of
    the user's task functions. *)

type 'r t
(** A workload of tasks with results of type ['r]. *)

val make : ?equal:('r -> 'r -> bool) -> t:int -> (int -> 'r) -> 'r t
(** [make ~t f]: [t] tasks; task [z]'s effect is [f z]. [equal] (default
    structural equality) decides whether a re-execution reproduced the
    original result. *)

(** Journals: replaying simulated executions against real effects. *)
module Journal : sig
  type 'r workload := 'r t

  type 'r t

  val create : 'r workload -> 'r t

  val replay_trace : 'r t -> Doall_sim.Trace.t -> unit
  (** Execute the task of every [Perform] event of a trace, in order,
      and record its outcome; a re-execution whose result differs from
      the task's first one breaks {!consistent}. A task outside the
      workload raises [Invalid_argument]. *)

  val redundant : 'r t -> int
  (** Executions beyond the first per task. *)

  val complete : 'r t -> bool
  (** Every task of the workload executed at least once. *)

  val consistent : 'r t -> bool
  (** No re-execution ever disagreed with the first result. *)

  val results : 'r t -> (int * 'r) list
  (** All first results, by increasing task id. *)
end

val keyspace_scan : t:int -> shard_size:int -> hit:(int -> bool) -> int list t
(** Task [z] scans keys [z * shard_size .. (z+1) * shard_size - 1] and
    returns the hits. *)
