(** Crash-failure patterns, and (beyond the paper's model) recovery.

    The model admits any pattern of crash failures with at least one
    surviving processor (the engine enforces the survivor rule). Crashes
    can be seen as infinite delays; algorithms must remain correct and
    their work bounds hold regardless.

    Recovery is a docs/FAULTS.md extension: a {!restart} policy names
    crashed pids to bring back {e with reset local state} (the engine
    re-runs the algorithm's [init]). Restart policies ride on
    [Adversary.restart] and cost nothing when absent. *)

open Doall_sim

type t = Adversary.oracle -> int list

type restart = Adversary.oracle -> int list
(** Called once per tick (before {!t}); returns crashed pids to revive. *)

val at_time : time:int -> pids:int list -> t
(** Crash exactly [pids] at [time]. *)

val poisson : ?survivor:int -> rate:float -> t
(** Each unit, each live processor crashes independently with probability
    [rate] — except [survivor] (default pid 0), which is never listed, so
    liveness is deterministic rather than left to the engine's
    last-one-alive guard. One RNG draw per pid is consumed regardless of
    the filter, so the survivor choice never shifts later draws. *)

val staggered : every:int -> t
(** Crash the lowest live pid every [every] time units. *)

val flaky : ?survivor:int -> up:int -> down:int -> unit -> t * restart
(** A deterministic churn cycle: every processor except [survivor]
    (default pid 0) repeats [up] ticks alive, [down] ticks crashed, with
    per-pid phase offsets so outages stagger. Returns the matching
    (crash, restart) pair — pass both to {!Doall_sim.Adversary.make}. *)
