(** Shared-channel contention policies: the {e ordered} and {e delayed}
    adversary classes (Klonowski–Kowalski–Mirek; see PAPERS.md and
    docs/MODEL.md).

    Each builder produces pieces of a
    {!Doall_sim.Adversary.channel_policy}: an [order] rule permutes each
    slot's contenders (the channel grants the slot to the head and
    defers the rest), a [hold] rule delays a submitted transmission
    before it first contends (the engine clamps the result into
    [0 .. d - 1], keeping the per-round delay cap inside the run's delay
    bound). Policies are inert on point-to-point runs.

    All builders here are deterministic — worst-case orderings, not
    random ones — so channel runs stay bit-reproducible across job
    counts. *)

open Doall_sim

type order = Adversary.oracle -> int array -> int array option
(** Contenders arrive in ascending pid order; return a permutation, or
    [None] to decline arbitration and let this slot collide. *)

type hold = Adversary.oracle -> src:int -> int
(** Extra slots to hold back a transmission submitted now by [src]. *)

(** {1 Ordering rules} *)

val ordered_low : order
(** Grant lowest pid first — serializes the channel, favouring the
    processors that also win the engine's forced-step rule. *)

val ordered_high : order
(** Grant highest pid first. Against balanced algorithms this is the
    mirror of {!ordered_low}; against coordinator-style algorithms it
    starves the natural leader. *)

val rotor : int -> order
(** [rotor k]: grant contender number [(now + k) mod n] of the [n]
    contenders, keeping the rest in ascending order — a rotating grant
    that spreads slots across contenders without ever colliding. *)

val most_informed_last : order
(** Grant the contender that would perform the {e fewest} new tasks
    first (ties by pid): the adversary lets redundant traffic through
    and defers the messages that would actually spread knowledge. *)

(** {1 Hold rules} *)

val batched : cap:int -> hold
(** Release every transmission at the next multiple of [cap] (at most
    [cap - 1] extra slots, further clamped by the engine to [d - 1]):
    submissions from different slots pile up on the same release slot,
    manufacturing collisions that honest timing would have avoided. *)
