(** Write-All in asynchronous shared memory — the origin model.

    Section 1.1 of the paper: "A similar problem, called Write-All, has
    been extensively studied in the shared-memory models of computation
    ... however, the techniques used in the synchronous shared-memory
    setting are not easily ported to the asynchronous message-passing
    setting." The paper's DA is a message-passing re-interpretation of
    the asynchronous shared-memory algorithm of Anderson and Woll [2];
    this module implements that algorithm {e in its native model}, so
    the three worlds can be compared on one instance:

    - AW in shared memory (this module): reads and writes hit one shared
      progress tree, instantly atomic; asynchrony is only adversarial
      interleaving of steps;
    - DA over message passing ({!Doall_core.Algo_da}): tree replicated,
      writes become multicasts, extra work appears as a function of the
      delay bound [d];
    - AW over quorum-replicated memory ({!Doall_quorum.Algo_awq}): tree
      emulated, every read/write costs a round trip.

    The model: [p] processors share one q-ary boolean progress tree over
    the [min(p,t)] jobs; a local step — granted or withheld per time
    unit by the adversarial schedule — performs exactly one action:
    check one tree bit, descend, perform one task, or set one bit.
    Work charges every granted step (same measure as the
    message-passing engine). A run ends when some live processor
    returns from the root knowing all tasks done. There are no
    messages, hence no delay parameter: the shared-memory adversary's
    whole power is scheduling and crashes. *)

type schedule = time:int -> p:int -> bool array
(** Which processors advance at each time unit (the engine forces the
    lowest live pid if none). *)

type crash_plan = time:int -> alive:bool array -> int list
(** Pids to crash at each instant; the last live processor is immune. *)

type metrics = {
  p : int;
  t : int;
  work : int;  (** granted steps until completion *)
  reads : int;  (** shared-memory bit reads *)
  writes : int;  (** shared-memory bit writes *)
  executions : int;  (** task executions, with multiplicity *)
  sigma : int;  (** completion time *)
  completed : bool;
  crashed : int;
}

val redundant : metrics -> int

val fair : schedule
(** Everyone steps every unit — the PRAM-like special case. *)

val rotating : width:int -> schedule
val random_subset : seed:int -> prob:float -> schedule
val solo : int -> schedule

val run :
  ?q:int ->
  ?psi:Doall_perms.Perm.t list ->
  ?schedule:schedule ->
  ?crashes:crash_plan ->
  ?max_time:int ->
  p:int ->
  t:int ->
  unit ->
  metrics
(** Execute AW(q) to completion. Same [q]/[psi] contract as
    {!Doall_core.Algo_da.make} (default: the cached certified list);
    [?schedule] defaults to {!fair}, [?crashes] to no crash at all.
    Raises nothing on adversarial schedules — the algorithm terminates
    under any interleaving with one survivor; [max_time] is a safety
    cap, reported via [completed]. *)
