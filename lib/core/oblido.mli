(** Algorithm ObliDo (Fig. 2) and primary-execution accounting.

    ObliDo runs [n] processors over [n] jobs with {e no} coordination:
    processor [u] performs jobs in the order of its permutation [pi_u],
    blindly, for a total of [n^2] executions. Its interest is
    analytical: an execution of a job is {e primary} if the job had not
    been completed in any earlier round (several processors may perform
    the same job concurrently for the first time — all of those are
    primary); Lemma 4.2 bounds the primary executions by [Cont(psi)],
    and this bound is what powers DA's recursion (Lemma 5.3).

    {!replay} is a pure round-based executor for measuring primaries
    under arbitrary interleavings; {!make} wraps ObliDo as an engine
    algorithm (it never communicates, so each processor halts only after
    performing its whole list). *)

open Doall_perms

type replay_stats = {
  executions : int;  (** total job executions, [<= n^2] *)
  primary : int;  (** executions of jobs with no earlier-round completion *)
  rounds_used : int;
}

val replay : psi:Perm.t list -> rounds:int list list -> replay_stats
(** [replay ~psi ~rounds]: [psi] gives each processor's schedule (size
    [n], one entry per processor). Each round lists the processors that
    take one step, concurrently; processors past the end of their
    schedule simply idle. If [rounds] is exhausted before every
    processor finishes, remaining steps run in lock-step rounds.
    Duplicate pids within a round raise [Invalid_argument]. *)

val random_rounds :
  rng:Doall_sim.Rng.t -> n:int -> count:int -> prob:float -> int list list
(** Enough Bernoulli rounds ([prob] per processor per round) to let every
    processor finish. *)

val adversarial_rounds : psi:Perm.t list -> int list list
(** One processor at a time, always the processor whose next job has
    already been completed if one exists — an interleaving that pushes
    executions towards the primary bound. *)

val make : psi:Perm.t list -> unit -> Doall_sim.Algorithm.packed
(** Engine-compatible ObliDo over jobs of the standard partition;
    processor [pid] follows [psi]'s entry [pid mod length]. *)
