(** Message-delay policies.

    Each value is a function suitable for the [delay] field of
    {!Doall_sim.Adversary.t}: it picks a latency for one point-to-point
    message submitted now. The engine clamps results into [1 .. d], so a
    policy may be written for "any d" and stays legal under every bound. *)

open Doall_sim

type t = Adversary.oracle -> src:int -> dst:int -> int

val immediate : t
(** Every message arrives after one time unit — the fastest legal
    network. *)

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

val partition : split:int -> t
(** A soft network partition: latency 1 within each side of the cut
    ([pid < split] vs [pid >= split]), the full [d] across it. Models a
    cluster split across two slow-linked sites. *)

val churn : calm:int -> storm:int -> t
(** Alternating regimes: [calm] time units of latency 1, then [storm]
    units where everything takes the full [d], repeating. Models
    congestion waves. *)

val targeted : victims:(int -> bool) -> t
(** Every message {e to} a victim takes the full [d]; all other traffic
    is fast. Models a fixed set of processors behind a bad link. *)
