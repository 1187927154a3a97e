(** The stage adversary of Theorem 3.1, executable.

    The proof's strategy, reproduced operationally:

    + Partition time into stages of [delta = min(d, t/6)] steps (at least
      1). All messages sent during a stage are delivered at its end —
      legal because [delta <= d].
    + At the start of stage [s], with [U_s] the still-unperformed tasks
      ([u_s = |U_s|]): compute, for every processor [i], the set
      [J_s(i)] of tasks from [U_s] that [i] would perform during the
      stage if undelayed and receiving nothing — obtained by cloning
      [i]'s state and stepping the clone in isolation (the adversary is
      omniscient and the algorithm deterministic, so this is exact).
    + By the pigeonhole claim in the proof, at least [u_s / (3 delta)]
      tasks lie in at most [2 p delta / u_s] of the [J_s(i)]; take
      [J_s] = the [max(1, u_s / (3 delta))] least-covered tasks.
    + Let [P_s = {i : J_s(i) /\ J_s = {}}] and delay every processor
      outside [P_s] for the whole stage.

    The effect: at least a third of the processors run all stage long,
    charging [>= p delta / 3] work, while every task of [J_s] survives
    the stage — so at least [u_s / (3 delta)] tasks remain, forcing
    [Omega(log_{3 delta} t)] stages and total work
    [Omega(p min(d,t) log_{d+1}(d+t))]. *)

open Doall_sim

val create : unit -> Adversary.t
(** Fresh instance (the adversary is stateful across a run; do not share
    one instance between runs). *)

val stages_of : Adversary.t -> (int * int * int list) list
(** Diagnostic history for the {e most recent} run using this instance:
    [(stage_start, u_s, J_s)] per stage, oldest first. The history is
    held only while the adversary (its name string) is reachable. *)
