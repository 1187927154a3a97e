(** The reliable asynchronous point-to-point network of Section 2.1.

    Processors communicate over a fully connected network of reliable
    channels: messages are never lost or corrupted, only delayed. The
    adversary picks each message's delivery time; the network records it
    and hands messages to a destination when that destination takes a local
    step at or after the due time (a delayed processor does not process
    messages — it is not ticking).

    A multicast is modelled, exactly as in the paper's complexity measure
    (Definition 2.2), as [p - 1] point-to-point messages: {!sent} counts
    every point-to-point message the algorithm paid for.

    Storage: one payload table, indexed two ways. A record holds the
    source, the send order and the payload once for all copies of one
    {!multicast} call: a multicast, a unicast with its replicas, or
    whatever copies the caller gathered for one payload. A queued copy
    is one int, its due time and the record's id packed together, in
    the destination's ring, which caps a due at {!Msg_ring.max_due};
    the record is released when its last copy is received. A
    {!broadcast} appends one entry to a due-ordered log that every
    destination reads through its own cursor; the record is released
    when every active destination's cursor has passed the entry. Ring
    copies owed to a processor that never steps again keep their
    records alive, one per call, as its ring keeps one entry each;
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

val multicast :
  'msg t ->
  src:int ->
  now:int ->
  dsts:int array ->
  dues:int array ->
  n:int ->
  paid:int ->
  'msg ->
  unit
(** [multicast t ~src ~now ~dsts ~dues ~n ~paid msg] queues [n] copies
    of [msg] from [src], copy [i] to [dsts.(i)] due at [dues.(i)], in
    index order, and counts [paid] messages in {!sent}: the messages the
    algorithm paid for (Definition 2.2), which is M. A copy dropped by a
    fault policy is paid for but not passed, so [paid > n]; a replica
    injected by a duplicating policy is passed but not paid for, so it
    may make [paid < n], and a [dst] may repeat. The call's copies share
    one record, opened only when [n > 0]; {!pending} rises by [n]. The
    buffers belong to the caller, who may reuse them once the call
    returns; the engine keeps one pair for every send.

    [now] is the sender's clock. Requires [0 <= now],
    [now + horizon <= Msg_ring.max_due], [0 <= n] within both buffers,
    [paid >= 0], and for every copy [dst] in range and not [src] (a
    processor already knows its own state) and
    [now < due <= now + horizon], after the destination's delivery
    cursor. Every copy is checked before anything is stored, so a
    rejected call raises [Invalid_argument] and leaves the payload
    table, the counters and the rings as they were. Each copy's ring
    bucket comes from one [now mod (horizon + 1)] without a division per
    copy ({!Msg_ring.add}). *)

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
    identical to a {!multicast} of [p - 1] copies issued at the same
    instant. *)

val deactivate : 'msg t -> pid:int -> unit
(** Declare that [pid] will never take another step (halted, or crashed
    with no recovery adversary): the broadcast log stops waiting for
    it. Messages already owed to [pid] still count in {!pending} —
    exactly like undeliverable messages rotting in a per-destination
    queue. *)

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
(** Total point-to-point messages paid for so far — the message
    complexity [M] of Definition 2.2, counted incrementally: a dropped
    copy counts, a replica does not ({!multicast}'s [paid]). *)

val stream_stats : 'msg t -> int * int
(** [(pending_records, digest_words)]: the broadcast log's occupancy —
    retained entries, and the heap words reachable from the chain (0
    when there is none). The chain's lineage is reachable from it, so
    its words count too. Read-only. *)
