(** Complexity accounting per Definitions 2.1 and 2.2 of the paper.

    Work [W] charges one unit per local step of every processor — task
    work, traversal bookkeeping, broadcasting, idling — until the instant
    [sigma] at which all tasks have been performed {e and} at least one
    processor knows it. Message complexity [M] counts point-to-point
    messages (a multicast to [m] destinations counts [m]). *)

type t = {
  p : int;
  t : int;
  d : int;  (** the adversary's delay bound for this run *)
  work : int;  (** W: total local steps up to [sigma] *)
  messages : int;  (** M: point-to-point messages sent up to [sigma] *)
  sigma : int;
      (** completion time: all tasks performed and >= 1 processor informed *)
  executions : int;  (** task executions, counting multiplicities *)
  completed : bool;  (** false iff the run hit its safety time cap *)
  halted : int;  (** processors that voluntarily halted by [sigma] *)
  crashed : int;  (** processors crashed by [sigma] *)
  per_proc_work : int array;  (** work breakdown, indexed by pid *)
}

val redundant : t -> int
(** Task executions beyond the first of each task: [executions - t]
    when the run completed. *)

val effort : t -> int
(** [W + M], the combined measure from the paper's introduction. *)

val pp : Format.formatter -> t -> unit
(** One-line human-readable summary. *)
