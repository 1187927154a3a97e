(** Processor-scheduling policies: who advances at each time unit.

    Asynchrony in the model is exactly the adversary's freedom to insert
    arbitrary gaps between a processor's clock ticks. Each value here is
    a [schedule] function for {!Doall_sim.Adversary.t}. The engine
    guarantees at least one eligible processor steps per unit (time is
    defined by the fastest processor), so policies need not worry about
    deadlocking the clock. *)

open Doall_sim

type t = Adversary.oracle -> bool array

val all : t
(** Everyone steps — the synchronous-speed special case. *)

val solo : int -> t
(** Only one processor ever advances: the maximal-asynchrony execution in
    which a single survivor does all the work. *)

val round_robin : width:int -> t
(** A rotating window of [width] consecutive pids steps each unit. *)

val random_subset : prob:float -> t
(** Each processor independently steps with probability [prob]. *)

val harmonic_speeds : t
(** Processor [i] steps only when [time mod (i + 1) = 0]: a spread of
    relative speeds from full speed (pid 0) to [p] times slower. *)

val adaptive_laggard : t
(** Omniscient spite without stages: each unit, delay the (at most half
    of the) processors whose next intended task is still undone — i.e.
    always favour processors about to do redundant work. A cheap
    adversary that noticeably inflates work for schedule-based
    algorithms; the stage adversaries in {!Lb_deterministic} and
    {!Lb_randomized} are the principled versions. *)
