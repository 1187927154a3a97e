(** Shared broadcast records: the O(1)-amortized multicast stream.

    Under an adversary whose latency is a declared constant
    ({!Adversary.latency}), every copy of a multicast is due at the same
    instant, and successive multicasts have non-decreasing dues. A
    broadcast can then be enqueued {e once} — payload, source, due, seq
    and a refcount of undelivered recipients — instead of [p - 1]
    per-destination queue insertions, and expanded lazily as each
    destination's delivery cursor walks over it. This is what collapses
    the engine's O(p) multicast cost and lets p = 16384 runs fit in
    memory (p - 1 queued copies per broadcast would not).

    Records must be added in non-decreasing due order (checked); [seq]
    must be strictly increasing across adds — the same counter the
    network's per-destination payload records draw, so the two streams
    merge under one total (due, seq) delivery key, preserving the exact
    delivery order of the per-destination path.

    A destination that halts or crashes for good is {!deactivate}d: its
    cursor stops holding records alive, so a broadcast's storage is
    reclaimed once every still-active destination has passed it. The
    logical messages owed to inactive destinations are {e not} forgotten
    by the network's in-flight accounting — matching the
    per-destination path, where such messages rot in the queue. *)

type 'msg t

val create : ?fold:('msg array -> 'msg) -> p:int -> unit -> 'msg t
(** A stream for destinations [0..p-1], all initially active.

    [?fold] enables the {e epoch-digest} delivery fast path. An epoch
    is a maximal run of equal-due records — under a constant declared
    delay, exactly the broadcasts of one send step. With [fold] given
    (the algorithm's {!Algorithm.S.merge_homomorphic} witness),
    {!drain} collapses each fully-due epoch into one cached
    [fold msgs] digest applied once per receiver, instead of walking
    its records individually: per-tick delivery cost drops from
    O(p{^ 2}) payload applies to O(p + digest size). Epochs are sealed
    before they become deliverable (records due at [T] were added at
    [T - delta], [delta >= 1]), so the cache can never go stale. *)

val add : 'msg t -> due:int -> src:int -> seq:int -> 'msg -> unit
(** Append one shared record with refcount = current active count.
    Raises [Invalid_argument] if [due] decreases. *)

val peek : 'msg t -> dst:int -> now:int -> bool
(** Position [dst]'s cursor at its earliest undelivered record with
    [due <= now]; false if there is none or [dst] is inactive. Records
    from [dst] itself are passed over (never delivered to their sender).
    After [true], the [head_*] accessors are valid until the next
    {!pop}. *)

val head_due : 'msg t -> dst:int -> int
val head_seq : 'msg t -> dst:int -> int
val head_src : 'msg t -> dst:int -> int
val head_msg : 'msg t -> dst:int -> 'msg

val pop : 'msg t -> dst:int -> unit
(** Consume the record located by the last successful {!peek} for
    [dst]: advance the cursor and drop one refcount. *)

val deactivate : 'msg t -> pid:int -> unit
(** Permanently remove [pid] as a recipient (halted, or crashed with no
    recovery): undelivered records stop waiting for it and future
    records exclude it. Idempotent. *)

val drain : 'msg t -> dst:int -> now:int -> (int -> 'msg -> unit) -> int
(** Deliver every record due for [dst] by [now] and return the number
    of {e logical} deliveries (records from other sources consumed),
    matching what a {!peek}/{!pop} loop would count. Without [fold]
    this {e is} a peek/pop loop, invoking the callback once per record
    with its true source. With [fold], each whole due epoch is
    delivered as a single callback invocation carrying the epoch digest
    and source [-1] (the digest has no single source); the receiver's
    own contribution may be folded in — harmless under the
    merge-homomorphism contract — while the count still excludes its
    own records. A cursor left mid-epoch by the per-record path falls
    back to single-record delivery until the next epoch boundary. *)

val stats : 'msg t -> int * int
(** [(pending, digest_words)]: retained records ([tail - head]) and the
    heap words reachable from the currently cached epoch digests taken
    together, so a block shared by several digests counts once —
    the occupancy feed for the [net.stream_pending] /
    [net.stream_digest_bytes] gauges. Read-only. *)
