(** A calendar ring of point-to-point message ids, specialized for the
    engine's per-destination delivery path.

    O(1) add and O(1) amortized delivery for events due at most
    [horizon] ahead of a non-decreasing clock: each add satisfies
    [now < due <= now + horizon], where [now] is the caller's clock at
    the moment of the add — never behind a previous {!peek}. The
    engine's delay clamp guarantees exactly this with [horizon = d].
    Storage is bucket FIFOs of one int per queued event, [due] and
    [id] packed together, so the steady-state hot path allocates
    nothing per message, stores no pointer and takes one word per
    event: the payload, its source and its send order live once per
    multicast in the caller's table ({!Network}), and [id] names that
    record. The packing caps both: [0 <= due <= max_due] and
    [0 <= id <= max_id].

    Delivery order is (due, insertion order). The caller keeps each
    id's send order [seq], non-decreasing in insertion order, and
    merges the ring with its broadcast log under one total (due, seq)
    key.

    The peek/pop split exists for that merge: [peek] positions the head
    at the earliest due event without removing it, the [head_*]
    accessors read its columns without allocating, and [pop] removes
    it. *)

type t

val max_due : int
(** [2^31 - 1], the greatest due an event can carry. *)

val max_id : int
(** [2^31 - 1], the greatest id an event can carry. *)

val create : horizon:int -> unit -> t
(** [horizon >= 1]; events may be added at most [horizon] ahead. *)

val add : t -> due:int -> id:int -> unit
(** Raises [Invalid_argument] if [due] is at or before the delivery
    cursor, or [due] or [id] is outside the packed range (above), before
    any write. Violating the upper bound ([due <= now + horizon]) is not
    detectable locally and forfeits delivery-order guarantees. *)

val admits : t -> due:int -> bool
(** Whether {!add} accepts [due]: [due] is after the delivery cursor. *)

val add_in : t -> bucket:int -> due:int -> id:int -> unit
(** {!add} with the bucket supplied by the caller, who guarantees
    [bucket = due mod (horizon + 1)]. Every ring of one horizon has
    these [horizon + 1] buckets, so a caller adding many events at one
    instant [now] takes [b = now mod (horizon + 1)] once and reaches
    each event's bucket as [b + (due - now)], less [horizon + 1] when
    that passes it: no division per event ({!Network.multicast}). *)

val size : t -> int
(** Events added but not yet popped. *)

val peek : t -> now:int -> bool
(** Position the head at the earliest (due, insertion order) event with
    [due <= now]; false if there is none (the cursor still advances to
    [now], so later adds must be due after [now]). After [true], the
    [head_*] accessors are valid until the next [pop] or [add]. *)

val head_due : t -> int
val head_id : t -> int

val pop : t -> unit
(** Remove the head event located by the last successful {!peek}. *)
