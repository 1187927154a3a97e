(** A calendar ring of point-to-point messages, specialized for the
    engine's per-destination delivery path.

    O(1) add and O(1) amortized delivery for events due at most
    [horizon] ahead of a non-decreasing clock: each add satisfies
    [now < due <= now + horizon], where [now] is the caller's clock at
    the moment of the add — never behind a previous {!peek}. The
    engine's delay clamp guarantees exactly this with [horizon = d].
    Storage is struct-of-arrays bucket FIFOs of (due, src, seq, msg)
    columns, so the steady-state hot path allocates nothing per
    message.

    Delivery order is (due, seq): [seq] is caller-supplied and must be
    strictly increasing across adds (the network's global send counter),
    which makes the order mergeable with the shared broadcast stream
    ({!Bcast}) under one total (due, seq) key.

    The peek/pop split exists for that merge: [peek] positions the head
    at the earliest due event without removing it, the [head_*]
    accessors read its columns without allocating, and [pop] removes
    it. *)

type 'msg t

val create : horizon:int -> unit -> 'msg t
(** [horizon >= 1]; events may be added at most [horizon] ahead. *)

val add : 'msg t -> due:int -> src:int -> seq:int -> 'msg -> unit
(** Raises [Invalid_argument] if [due] is at or before the delivery
    cursor. Violating the upper bound ([due <= now + horizon]) is not
    detectable locally and forfeits delivery-order guarantees. *)

val size : 'msg t -> int
(** Messages added but not yet popped. *)

val peek : 'msg t -> now:int -> bool
(** Position the head at the earliest (due, seq) message with
    [due <= now]; false if there is none (the cursor still advances to
    [now], so later adds must be due after [now]). After [true], the
    [head_*] accessors are valid until the next [pop] or [add]. *)

val head_due : 'msg t -> int
val head_seq : 'msg t -> int
val head_src : 'msg t -> int
val head_msg : 'msg t -> 'msg

val pop : 'msg t -> unit
(** Remove the head message located by the last successful {!peek}. *)
