(** A multiple-access shared channel (beyond the paper's model; see
    docs/MODEL.md and the Klonowski–Kowalski–Mirek paper in PAPERS.md).

    Time is slotted: one transmission slot per engine time unit. All
    outbound traffic of one processor's step — its broadcast and/or
    unicasts — forms one {e frame}, queued locally at the transmitter.
    At the end of each tick the channel resolves the slot:

    - exactly one live contender → its frame is delivered, due at the
      next time unit (the broadcast part to every other processor, each
      unicast to its destination);
    - two or more contenders → a collision, unless an arbitration order
      was supplied (the {e ordered} adversary), in which case the head
      of the order transmits alone and the rest are deferred one slot.

    Collision semantics are configured at creation
    ({!Config.collision}): [Silent] loses every colliding frame;
    [Detectable] re-queues each colliding frame under a deterministic
    per-pid TDMA backoff (retry at the next slot [u > now] with [u mod p
    = src]), so distinct transmitters never re-collide with each other
    and every frame is eventually delivered.

    Message complexity on a broadcast medium: {!sent} counts one unit
    per {e logical message in a transmission attempt} — a broadcast
    costs 1 (not [p - 1]: the medium is shared), a unicast costs 1, and
    attempts lost to collisions still count (the transmitter paid for
    the slot). This is deliberately a different measure from the
    point-to-point [M] of Definition 2.2 — see docs/MODEL.md.

    Everything is deterministic: contenders are resolved in ascending
    pid order, per-destination deliveries are enqueued in slot order,
    and no randomness is drawn.

    Storage: each station is a ring of frames whose columns are the
    broadcast option, the unicast list and the release slot as the
    caller handed them over, so queuing a frame allocates no block of
    its own. A delivered frame goes into an embedded {!Network}, due at
    the next slot: its broadcast is one shared record for all [p - 1]
    destinations, each unicast one entry of its destination's ring. A
    slot delivers at most one frame, so the network's (due, send order)
    merge keeps slot order, a frame's broadcast before its unicasts.
    A broadcast record stays alive until every processor that is not
    {!deactivate}d has received it; unicasts owed to a processor that
    never steps again stay in its ring. *)

type 'msg t

val create : p:int -> collision:Config.collision -> unit -> 'msg t
(** A channel shared by processors [0..p-1]. *)

val p : 'msg t -> int
val collision : 'msg t -> Config.collision

val transmit :
  'msg t ->
  src:int ->
  release:int ->
  ?bcast:'msg ->
  unis:(int * 'msg) list ->
  unit ->
  unit
(** Queue one frame at [src]'s station. [release] is the first slot at
    which it may contend (the engine derives it from the adversary's
    [hold] policy; [release = now] contends this very slot). A station
    transmits at most one frame per slot, oldest first. Frames with
    neither a broadcast nor unicasts are rejected ([Invalid_argument]),
    as are self-addressed unicasts. {!sent} advances by the frame's
    logical message count at submission time. *)

val silence : 'msg t -> pid:int -> unit
(** Drop every frame still queued at [pid]'s station (a crash: the
    transmit buffer died with the volatile state). Messages counted in
    {!sent} stay counted; {!lost} records the discarded payload.
    Already-delivered traffic is unaffected. *)

val deactivate : 'msg t -> pid:int -> unit
(** Declare that [pid] will never take another step (halted, or crashed
    with no recovery adversary): broadcasts stop waiting for it
    ({!Network.deactivate}). Its station keeps transmitting what is
    already queued, and messages already owed to it still count in
    {!pending}. Idempotent. *)

type slot =
  | Idle  (** no frame contended *)
  | Collided  (** two or more contended with no arbitration *)
  | Delivered  (** one frame went out; {!receive_iter} counts its copies *)

val resolve :
  'msg t -> now:int -> ?arbitrate:(int array -> int array option) -> unit ->
  slot
(** Resolve slot [now]; the engine calls this once per tick, after the
    stepping loop. [?arbitrate] is the ordered adversary's permutation
    over the contending pids (ascending); it must return a permutation
    of its argument ([Invalid_argument] otherwise) or [None] to decline
    — declining (or omitting [?arbitrate]) lets two or more contenders
    collide. Slots must be resolved in strictly increasing [now]
    order, and no slot before the greatest [now] a {!receive_iter} has
    seen may be resolved ([Invalid_argument] either way). Every check
    comes before the first write, so a rejected call leaves the channel
    as it was. *)

val receive_iter : 'msg t -> dst:int -> now:int -> (int -> 'msg -> unit) -> int
(** Deliver every message owed to [dst] with due time [<= now], oldest
    first, as [f src msg]; returns the delivery count. [now] must not
    run ahead of the next slot to resolve, as in the engine, where a
    tick's steps come before its slot: a frame resolved at a slot
    before any receiver's last [now] would be due behind that
    receiver's delivery cursor, so {!resolve} rejects the slot
    ([Invalid_argument]). *)

val pending : 'msg t -> int
(** Deliveries owed but not yet received: queued frames count their
    eventual fan-out (a broadcast frame counts [p - 1]), resolved
    deliveries count individually until received. *)

val sent : 'msg t -> int
(** Logical messages across all transmission attempts so far — the
    shared-channel message complexity (see module doc). *)

val collisions : 'msg t -> int
(** Slots that ended in a collision. *)

val busy_slots : 'msg t -> int
(** Slots with at least one contender. *)

val successes : 'msg t -> int
(** Slots in which a frame was delivered. *)

val lost : 'msg t -> int
(** Logical messages lost to silent collisions or {!silence}. *)
