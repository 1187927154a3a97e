(** Message-delay rules.

    Each value is a {!Doall_sim.Adversary.delay_rule} for the [?delay]
    argument of {!Doall_sim.Adversary.make}, which derives the record's
    per-copy closure and its latency profile from it. {!maximal}, like
    [Adversary.Constant k] (whose [k = 1] is the fastest legal network
    and [make]'s default), is a constant, so a fault- and restart-free
    run under it takes the shared-broadcast stream; every other rule
    is [Per_copy], asked once per point-to-point message submitted
    now.
    The engine clamps results into [1 .. d], so a rule may be written
    for "any d" and stays legal under every bound. *)

open Doall_sim

type t = Adversary.delay_rule

val maximal : t
(** Every message takes the full bound [d]. *)

val uniform : t
(** Latency uniform on [1..d], drawn from the adversary's stream. *)

val bimodal : slow_fraction:float -> t
(** Mostly-fast network with a fraction of worst-case stragglers:
    latency 1 with probability [1 - slow_fraction], else [d]. *)

val stage_batched : stage_len:int -> t
(** Deliver at the next multiple of [stage_len] strictly after now — the
    delivery rule of the lower-bound constructions (all messages sent
    during a stage arrive at its end). Requires [stage_len >= 1]; legal
    whenever [stage_len <= d]. *)

val partition : cut:int -> t
(** A soft network partition: latency 1 within each side of the cut at
    pid [max 1 (p / cut)], the full [d] across it. Models a cluster
    split across two slow-linked sites; [cut = 2] halves the fleet. *)

val churn : calm:int -> storm:int -> t
(** Alternating regimes: [calm] time units of latency 1, then [storm]
    units where everything takes the full [d], repeating. Requires both
    periods [>= 1]. Models congestion waves. *)

val targeted : victims:(int -> bool) -> t
(** Every message {e to} a victim takes the full [d]; all other traffic
    is fast. Models a fixed set of processors behind a bad link. *)
