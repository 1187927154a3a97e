(** The reliable asynchronous point-to-point network of Section 2.1.

    Processors communicate over a fully connected network of reliable
    channels: messages are never lost or corrupted, only delayed. The
    adversary picks each message's delivery time; the network records it
    and hands messages to a destination when that destination takes a local
    step at or after the due time (a delayed processor does not process
    messages — it is not ticking).

    A multicast is modelled, exactly as in the paper's complexity measure
    (Definition 2.2), as [p - 1] point-to-point messages: {!sent} counts
    every point-to-point send.

    Storage: one payload table, indexed two ways. A record holds the
    source, the send order and the payload once for all copies of one
    multicast. A per-destination send queues a copy as one int, its
    due time and the record's id packed together, in the destination's
    ring, which caps a due at {!Msg_ring.max_due}; the record
    is released when its last copy is received, and consecutive sends
    from one source with a physically equal payload share it — a
    {!multicast}, the engine's per-copy loop over a multicast under
    faults, and its replicas. A
    {!broadcast} appends one entry to a due-ordered log that every
    destination reads through its own cursor; the record is released
    when every active destination's cursor has passed the entry. Ring
    copies owed to a processor that never steps again keep their
    records alive, one per multicast, as its ring keeps one entry each;
    log entries stop waiting for it once it is {!deactivate}d. *)

type 'msg t

val create :
  ?digest:('msg array -> 'msg) -> horizon:int -> p:int -> unit -> 'msg t
(** A network connecting processors [0..p-1]. Each per-destination
    queue is a calendar ring ({!Msg_ring}): O(1) sends, valid when
    every send's due time is after the destination's last delivery
    poll and at most [horizon] ahead of the sender's (non-decreasing)
    clock — the engine's delay clamp guarantees exactly this with
    [horizon = d], the paper's delivery bound (§2). A send due at or
    before the destination's delivery cursor (the greatest [now] it has
    received at, by unicast or from the broadcast log alone) raises
    [Invalid_argument] before any write.

    [?digest] is the algorithm's merge-homomorphism witness
    ({!Algorithm.S.merge_homomorphic}): broadcasts due at the same
    instant (an epoch) are pre-folded once into one cumulative digest,
    the chain, delivered as a single message with source [-1]. The
    network keeps one chain, covering every log entry up to some point;
    the first receiver to reach that point with the next epoch due folds
    the epoch onto the chain, the chain first, then the epoch's
    payloads. Epochs are sealed before they become deliverable
    (broadcasts due at [T] were sent at [T - delta], [delta >= 1]), so
    the chain never misses an entry it claims to cover. A receiver
    whose cursor is behind the chain's end gets the chain in one
    callback, however many epochs it spans, once the chain's last entry
    is due to it; until then, and past the chain's end, it takes
    entries one at a time with their true sources, so a digest never
    carries a record not yet due to its receiver, whatever clock each
    destination polls with. Counters — {!sent}, {!pending}, and the
    delivery count returned by {!receive_iter} — are unchanged: they
    account logical [p - 1]-way multicasts regardless of how deliveries
    are materialized.

    A receiver of the chain has passed every entry below its cursor —
    by the chain, per entry, or as its own entries — so it already holds
    the rest of the chain's content, which the contract of
    {!Algorithm.S.merge_homomorphic} makes harmless to receive again.
    A fold can record the new chain's lineage against the old one
    ({!Bitset.union_snapshots}), and a receiver whose knowledge came
    from the old chain adopts the new one's chunks unread. An epoch
    with a single record and no chain is delivered as that record,
    unfolded. The chain is dropped when the broadcast log drains, so an
    idle network holds no digest. *)

val p : 'msg t -> int

val send : 'msg t -> src:int -> dst:int -> due:int -> 'msg -> unit
(** Queue one point-to-point message for delivery at absolute time [due].
    [src] is recorded for tracing; self-sends are rejected
    ([Invalid_argument]) — a processor already knows its own state, as
    is a [due] past {!Msg_ring.max_due}. Every check is made before
    anything is stored, so a rejected send leaves the payload table,
    the counters and the rings as they were. *)

val multicast : 'msg t -> src:int -> now:int -> dues:int array -> 'msg -> unit
(** [multicast t ~src ~now ~dues msg] is {!send} from [src] to every
    [dst <> src] at [~due:dues.(dst)], in ascending [dst] order, in one
    call: the same queued copies, delivery order, {!sent}, {!pending}
    and record sharing as those [p - 1] sends, with the per-multicast
    work — the [src] check, the record, the counters — done once, and
    each copy's ring bucket found from one [now mod (horizon + 1)]
    without a division per copy ({!Msg_ring.add_in}). The engine's
    fault-free per-destination path fills [dues] in a buffer it reuses
    across multicasts; [dues.(src)] is ignored.

    Requires [0 <= now], [now + horizon <= Msg_ring.max_due] (checked
    before the record is taken), [Array.length dues >= p] and
    [now < dues.(dst) <= now + horizon] for every [dst <> src], where
    [now] is the sender's clock; a due outside that window raises
    [Invalid_argument] after the copies before it were queued and
    counted, as after the same prefix of sends. A multicast rejected
    before its first copy was queued leaves no trace, as {!send}. *)

val broadcast : 'msg t -> src:int -> due:int -> 'msg -> unit
(** Queue one multicast from [src] to every other processor, all due at
    the same absolute time — [p - 1] logical point-to-point messages
    ({!sent} and {!pending} advance by [p - 1]), but stored as {e one}
    log entry (see "Storage" above). Only valid when every
    copy is genuinely due at once, i.e. under an adversary with a
    constant latency profile; the engine's per-destination send loop remains the
    general path. Successive broadcasts' dues must not decrease, and a
    due must come after the greatest [now] any {!receive_iter} has
    seen, or the entry would reach that receiver late; either violation
    raises [Invalid_argument] before any write. Delivery order is
    identical to [p - 1] individual {!send}s issued at the same
    instant. *)

val deactivate : 'msg t -> pid:int -> unit
(** Declare that [pid] will never take another step (halted, or crashed
    with no recovery adversary): the broadcast log stops waiting for
    it. Messages already owed to [pid] still count in {!pending} —
    exactly like undeliverable messages rotting in a per-destination
    queue. *)

val send_replica : 'msg t -> src:int -> dst:int -> due:int -> 'msg -> unit
(** Like {!send} but without incrementing {!sent}: a network-level copy
    injected by a duplicating fault policy. The algorithm paid for one
    message (Definition 2.2); the unreliable network delivering it twice
    must not inflate [M]. *)

val count_lost : 'msg t -> unit
(** Count one send that the fault layer dropped: the algorithm paid for
    the message, so it contributes to {!sent} ([M]) even though it is
    never enqueued. *)

val receive_iter : 'msg t -> dst:int -> now:int -> (int -> 'msg -> unit) -> int
(** [receive_iter t ~dst ~now f] calls [f sender message] for each
    message due at or before [now], removing it from the queue, in
    (due time, send order) order — the engine's per-step delivery
    path. Returns
    the number of logical deliveries: on the digest fast path one
    callback can stand for one or several epochs ([f (-1) digest]), but the
    count still reflects the individual messages consumed, so
    [net.deliveries] is the same with or without a digest. *)

val pending : 'msg t -> int
(** Messages queued but not yet received. O(1): maintained as an
    incremental in-flight counter on send/broadcast/delivery, so the
    engine's per-tick gauge sample no longer folds over all [p]
    queues. *)

val sent : 'msg t -> int
(** Total point-to-point messages sent so far — the message complexity
    [M] of Definition 2.2, counted incrementally. *)

val stream_stats : 'msg t -> int * int
(** [(pending_records, digest_words)]: the broadcast log's occupancy —
    retained entries, and the heap words reachable from the chain (0
    when there is none). The chain's lineage is reachable from it, so
    its words count too. Read-only. *)
