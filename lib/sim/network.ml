(* See network.mli. One payload table, indexed two ways and merged under
   one total (due, seq) delivery key. [seq] is a single network-wide send
   counter, so relative order per destination is exactly send order. A
   record of the table holds one multicast's [src], [seq] and payload
   once, however many copies are queued and however they are delivered.

   Per-destination calendar rings (Msg_ring) hold a queued copy as one
   int, its due and [id] packed together, where [id] names a record;
   the packing caps a ring due at [Msg_ring.max_due] and the table at
   [Msg_ring.max_id + 1] records, both checked before any write.
   [multicast] opens one record for all the copies of its call, which
   draws the next [seq]. Sharing one [seq] among copies keeps the merge
   exact: every copy of a record is queued in one call, so none can
   come after a later broadcast. A ring record is released when its
   last queued copy is received.

   A broadcast opens a record and appends one entry to the broadcast
   log, a growable circular struct-of-arrays buffer, globally sorted by
   (due, seq) because the engine only broadcasts when the delay is a
   declared constant: send instants never decrease, so dues never
   decrease, and seq breaks ties in send order. Each destination keeps a
   cursor (absolute log index); delivery walks the cursor over entries
   due by now, the sender's included — it passes its own entry without
   a delivery. The log keeps an entry while some active destination's
   cursor is at or below it. No active cursor is below [head], so that
   holds for [head] exactly when a cursor sits on it: [l_at] counts the
   active cursors sitting on each entry and [at_tail] those at [tail].
   A cursor move is then two count updates, a deactivation one, and the
   log drops the entries at zero from its head and releases their
   records — the same prefix, at the same calls, as a count of the
   cursors not yet past each entry would. An entry keeps its own [src]
   next to [due] and [id], so every cursor's scan reads contiguous
   columns, not records the free-list scattered.

   A receiver passes its own entries without a delivery, and a chain
   apply (below) must count them. [l_next] links each entry of an
   active source to that source's next entry, and [own_next] names each
   pid's first own entry at or past its cursor, so counting them costs
   one step per own entry passed, not one per entry. *)

type 'msg t = {
  p : int;
  rings : Msg_ring.t option array; (* per dst, made on first send *)
  seen : int array;
      (* per dst: the greatest [now] it received at, -1 before its first
         receive. A ring made later starts there, and a ring's cursor
         reaches it by the end of every receive, so a send must be due
         after it. *)
  horizon : int;
  mutable sent : int;
  mutable in_flight : int; (* queued but not yet received, O(1) pending *)
  mutable seq : int;
  (* payload table, one record per multicast; ids below [opened] are
     live or on the [free] stack *)
  mutable rec_src : int array;
  mutable rec_seq : int array;
  mutable rec_msg : 'msg array;
  mutable rec_copies : int array; (* ring copies still queued *)
  mutable free : int array;
  mutable n_free : int;
  mutable opened : int;
  mutable filler : 'msg option; (* overwrites released slots *)
  (* broadcast log, circular: slot = index land (capacity - 1) *)
  mutable l_due : int array;
  mutable l_id : int array;
  mutable l_src : int array;
  mutable l_at : int array; (* active cursors sitting on the entry *)
  mutable l_next : int array;
      (* the same source's next entry, [none] until it broadcasts again;
         kept for active sources only *)
  mutable head : int; (* absolute index of the first retained entry *)
  mutable tail : int; (* absolute index one past the last entry *)
  mutable last_due : int;
  mutable polled : int; (* the greatest [now] a receive has seen *)
  mutable at_tail : int; (* active cursors at [tail] *)
  cursor : int array; (* per pid: absolute index of the next entry *)
  mutable own_next : int array;
      (* per pid: its first own entry at or past its cursor, or [none];
         made with the log, read only once it holds an entry *)
  mutable last_own : int array;
      (* per pid: its latest entry; read only while [own_next] is not
         [none], when that entry is still in the log *)
  active : bool array;
  (* Digest fast path (None fold = disabled). [chain] is one cumulative
     digest of every log entry below [chain_end] (None: no entry is
     digested yet). An epoch is a maximal run of equal-due entries; the
     first receiver to reach [chain_end] with the next entry due folds
     that epoch onto [chain]. Sound because an entry due at T was added
     at T - delta < T (delta >= 1), so a deliverable epoch can no longer
     grow. A receiver below [chain_end] gets [chain] in one callback:
     it has passed every entry below its cursor, by the chain, per entry
     or as its own, so it already holds the rest of the chain's content
     (stream runs have no restarts). Dropped when the log drains. *)
  fold : ('msg array -> 'msg) option;
  mutable chain : 'msg option;
  mutable chain_end : int;
}

let none = max_int

let create ?digest ~horizon ~p () =
  if p <= 0 then invalid_arg "Network.create: need at least one processor";
  if horizon < 1 then invalid_arg "Network.create: horizon must be >= 1";
  {
    p;
    rings = Array.make p None;
    seen = Array.make p (-1);
    horizon;
    sent = 0;
    in_flight = 0;
    seq = 0;
    rec_src = [||];
    rec_seq = [||];
    rec_msg = [||];
    rec_copies = [||];
    free = [||];
    n_free = 0;
    opened = 0;
    filler = None;
    l_due = [||];
    l_id = [||];
    l_src = [||];
    l_at = [||];
    l_next = [||];
    head = 0;
    tail = 0;
    last_due = min_int;
    polled = min_int;
    at_tail = p;
    cursor = Array.make p 0;
    own_next = [||];
    last_own = [||];
    active = Array.make p true;
    fold = digest;
    chain = None;
    chain_end = 0;
  }

let p t = t.p

let check_pid t pid name =
  if pid < 0 || pid >= t.p then invalid_arg (name ^ ": pid out of range")

let ring_for t dst =
  match Array.unsafe_get t.rings dst with
  | Some r -> r
  | None ->
    let r = Msg_ring.create ~horizon:t.horizon () in
    (* an empty ring's peek moves its cursor to [now] *)
    ignore (Msg_ring.peek r ~now:(Array.unsafe_get t.seen dst) : bool);
    t.rings.(dst) <- Some r;
    r

(* -- payload table ------------------------------------------------- *)

let grow t msg =
  let cap = Array.length t.rec_src in
  (* [cap] is a power of two: opening id [cap] would pass the cap *)
  if cap > Msg_ring.max_id then
    invalid_arg "Network: payload table full (Msg_ring.max_id + 1 records)";
  let cap' = if cap = 0 then 16 else 2 * cap in
  let ints a =
    let a' = Array.make cap' 0 in
    Array.blit a 0 a' 0 cap;
    a'
  in
  let f =
    match t.filler with
    | Some f -> f
    | None ->
      t.filler <- Some msg;
      msg
  in
  let msg' = Array.make cap' f in
  Array.blit t.rec_msg 0 msg' 0 cap;
  t.rec_src <- ints t.rec_src;
  t.rec_seq <- ints t.rec_seq;
  t.rec_copies <- ints t.rec_copies;
  t.free <- ints t.free;
  t.rec_msg <- msg'

let open_record t ~src msg =
  let id =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      Array.unsafe_get t.free t.n_free
    end
    else begin
      if t.opened = Array.length t.rec_src then grow t msg;
      t.opened <- t.opened + 1;
      t.opened - 1
    end
  in
  Array.unsafe_set t.rec_src id src;
  Array.unsafe_set t.rec_seq id t.seq;
  t.seq <- t.seq + 1;
  Array.unsafe_set t.rec_msg id msg;
  Array.unsafe_set t.rec_copies id 0;
  id

(* back on the free-list, so the table holds no payload nobody will
   receive *)
let release t id =
  (match t.filler with
   | Some f -> Array.unsafe_set t.rec_msg id f
   | None -> ());
  Array.unsafe_set t.free t.n_free id;
  t.n_free <- t.n_free + 1

(* one ring copy of record [id] was received: release it with its last *)
let drop_copy t id =
  let c = Array.unsafe_get t.rec_copies id - 1 in
  Array.unsafe_set t.rec_copies id c;
  if c = 0 then release t id

(* -- broadcast log ------------------------------------------------- *)

(* circular array [a] copied into a fresh one of capacity [cap'], every
   absolute index in [lo, hi) kept at its slot *)
let recap a ~lo ~hi cap' z =
  let a' = Array.make cap' z in
  let mask = Array.length a - 1 and mask' = cap' - 1 in
  for k = lo to hi - 1 do
    Array.unsafe_set a' (k land mask') (Array.unsafe_get a (k land mask))
  done;
  a'

let grow_log t =
  let cap = Array.length t.l_due in
  let cap' = if cap = 0 then 64 else 2 * cap in
  if cap = 0 then begin
    (* a network whose log is never used allocates no per-pid links *)
    t.own_next <- Array.make t.p none;
    t.last_own <- Array.make t.p 0
  end;
  let lo = t.head and hi = t.tail in
  t.l_due <- recap t.l_due ~lo ~hi cap' 0;
  t.l_id <- recap t.l_id ~lo ~hi cap' 0;
  t.l_src <- recap t.l_src ~lo ~hi cap' 0;
  t.l_at <- recap t.l_at ~lo ~hi cap' 0;
  t.l_next <- recap t.l_next ~lo ~hi cap' 0

(* drop the log's prefix that no active cursor sits on, with its
   records *)
let reclaim t =
  let mask = Array.length t.l_due - 1 in
  while t.head < t.tail && Array.unsafe_get t.l_at (t.head land mask) = 0 do
    release t (Array.unsafe_get t.l_id (t.head land mask));
    t.head <- t.head + 1
  done;
  if t.head = t.tail then begin
    t.chain <- None;
    t.chain_end <- t.tail
  end

(* move active [dst]'s cursor forward from [c] (an entry) to [c'] *)
let move t dst c c' =
  let mask = Array.length t.l_due - 1 in
  let i = c land mask in
  Array.unsafe_set t.l_at i (Array.unsafe_get t.l_at i - 1);
  if c' < t.tail then begin
    let i' = c' land mask in
    Array.unsafe_set t.l_at i' (Array.unsafe_get t.l_at i' + 1)
  end
  else t.at_tail <- t.at_tail + 1;
  Array.unsafe_set t.cursor dst c'

(* Position [dst]'s cursor at its earliest undelivered entry with
   [due <= now]; false if there is none or [dst] is inactive. *)
let peek t ~dst ~now =
  Array.unsafe_get t.active dst
  &&
  let mask = Array.length t.l_due - 1 in
  let c0 = Array.unsafe_get t.cursor dst in
  let c = ref c0 in
  (* pass (without delivering) our own due entries: they keep global
     (due, seq) order but a processor never receives from itself *)
  while
    !c < t.tail
    && Array.unsafe_get t.l_due (!c land mask) <= now
    && Array.unsafe_get t.l_src (!c land mask) = dst
  do
    Array.unsafe_set t.own_next dst (Array.unsafe_get t.l_next (!c land mask));
    incr c
  done;
  if !c > c0 then begin
    move t dst c0 !c;
    reclaim t
  end;
  !c < t.tail && Array.unsafe_get t.l_due (!c land mask) <= now

(* the log slot under [dst]'s cursor *)
let slot t dst = Array.unsafe_get t.cursor dst land (Array.length t.l_due - 1)

(* Deliver the entry located by the last successful [peek] for [dst]
   and advance the cursor past it. [peek] has passed [dst]'s own
   entries, so this one is another source's and [own_next] stands. *)
let pop t ~dst f =
  let c = Array.unsafe_get t.cursor dst in
  let i = slot t dst in
  let src = Array.unsafe_get t.l_src i
  and msg = Array.unsafe_get t.rec_msg (Array.unsafe_get t.l_id i) in
  move t dst c (c + 1);
  reclaim t;
  t.in_flight <- t.in_flight - 1;
  f src msg

(* Fold the epoch opening at [chain_end] onto [chain]: fold(chain ::
   the epoch's msgs), or its record when it is a single record and there
   is no chain. The epoch's entries and records are retained, as the
   caller's cursor is at [chain_end], and it is sealed (see the type
   comment). The fold's input starts as [Array.make] of a long-lived
   value: [Array.init] over more than 256 young payloads allocates in the
   major heap and forces a minor collection first. *)
let extend_chain t fold =
  let mask = Array.length t.l_due - 1 in
  let start = t.chain_end in
  let due = Array.unsafe_get t.l_due (start land mask) in
  let stop = ref (start + 1) in
  while !stop < t.tail && Array.unsafe_get t.l_due (!stop land mask) = due do
    incr stop
  done;
  let n = !stop - start in
  let msg k =
    Array.unsafe_get t.rec_msg (Array.unsafe_get t.l_id (k land mask))
  in
  let d =
    match t.chain with
    | None when n = 1 -> msg start
    | prev ->
      let fill = match t.filler with Some f -> f | None -> msg start in
      let k = match prev with Some _ -> 1 | None -> 0 in
      let ms = Array.make (k + n) fill in
      (match prev with Some c -> Array.unsafe_set ms 0 c | None -> ());
      for i = 0 to n - 1 do
        Array.unsafe_set ms (k + i) (msg (start + i))
      done;
      let d = fold ms in
      (* a major-heap [ms] would promote the young payloads it still
         holds at the next minor collection *)
      Array.fill ms 0 (k + n) fill;
      d
  in
  t.chain <- Some d;
  t.chain_end <- !stop

(* Deliver every log entry due for [dst] by [now] and return the number
   of logical deliveries (entries from other sources consumed). Without
   [fold] this is a peek/pop loop, one callback per entry with its true
   source. With [fold], a receiver below [chain_end] gets the chain as a
   single callback with source [-1] (the digest has no single source),
   once the last entry it covers is due; the receiver's own entries and
   entries it passed earlier are folded in too — content it already
   holds, harmless under the merge-homomorphism contract — while the
   count still excludes its own entries. A receiver at [chain_end] first
   folds the next due epoch onto the chain. Entries go one at a time
   past [chain_end], or while the chain's last entry is not yet due for
   this receiver's clock. *)
let drain t ~dst ~now f =
  let delivered = ref 0 in
  let running = ref (Array.unsafe_get t.active dst) in
  while !running do
    let mask = Array.length t.l_due - 1 in
    let c = Array.unsafe_get t.cursor dst in
    (match t.fold with
     | Some fold
       when c = t.chain_end && c < t.tail
            && Array.unsafe_get t.l_due (c land mask) <= now ->
       extend_chain t fold
     | _ -> ());
    let stop = t.chain_end in
    match t.chain with
    | Some d
      when c < stop && Array.unsafe_get t.l_due ((stop - 1) land mask) <= now
      ->
      (* one chain apply replaces the per-entry walk; the own entries
         it passes are found through their links *)
      let own = ref 0 and o = ref (Array.unsafe_get t.own_next dst) in
      while !o < stop do
        incr own;
        o := Array.unsafe_get t.l_next (!o land mask)
      done;
      Array.unsafe_set t.own_next dst !o;
      move t dst c stop;
      reclaim t;
      let n = stop - c - !own in
      if n > 0 then begin
        delivered := !delivered + n;
        t.in_flight <- t.in_flight - n;
        f (-1) d
      end
    | _ ->
      if peek t ~dst ~now then begin
        pop t ~dst f;
        incr delivered
      end
      else running := false
  done;
  !delivered

(* -- sends and deliveries ------------------------------------------ *)

let late =
  "Network.multicast: due at or before the receiver's delivery cursor"
let window = "Network.multicast: due outside [now + 1, now + horizon]"

(* Every copy is checked before the record is taken, so a rejected call
   leaves the table, the counters and the rings as they were. Then one
   record, one [now mod buckets], and the counters raised once. *)
let multicast t ~src ~now ~dsts ~dues ~n ~paid msg =
  check_pid t src "Network.multicast src";
  if n < 0 || n > Array.length dsts || n > Array.length dues then
    invalid_arg "Network.multicast: n outside the buffers";
  if paid < 0 then invalid_arg "Network.multicast: negative paid";
  if now < 0 then invalid_arg "Network.multicast: negative now";
  let horizon = t.horizon in
  (* every due below is at most [now + horizon] *)
  if now > Msg_ring.max_due - horizon then
    invalid_arg
      "Network.multicast: now + horizon past Msg_ring.max_due (2^31 - 1)";
  let p = t.p and seen = t.seen in
  for i = 0 to n - 1 do
    let dst = Array.unsafe_get dsts i and due = Array.unsafe_get dues i in
    (* one test per copy; the error text is built only when it fails,
       with the same precedence: dst range, then self *)
    if dst < 0 || dst >= p || dst = src then begin
      check_pid t dst "Network.multicast dst";
      invalid_arg "Network.multicast: self-send"
    end;
    if due - now < 1 || due - now > horizon then invalid_arg window
  done;
  (* [Msg_ring.add]'s cursor test, made here so that a rejected call
     leaves no trace; every due is after [now], so only a receiver whose
     clock is ahead of the sender's can fail it *)
  if now < t.polled then
    for i = 0 to n - 1 do
      let dst = Array.unsafe_get dsts i in
      if Array.unsafe_get dues i <= Array.unsafe_get seen dst then
        invalid_arg late
    done;
  if n > 0 then begin
    let id = open_record t ~src msg in
    let buckets = horizon + 1 in
    let base = now mod buckets in
    for i = 0 to n - 1 do
      let due = Array.unsafe_get dues i in
      let b = base + (due - now) in
      Msg_ring.add
        (ring_for t (Array.unsafe_get dsts i))
        ~bucket:(if b >= buckets then b - buckets else b)
        ~due ~id
    done;
    Array.unsafe_set t.rec_copies id n;
    t.in_flight <- t.in_flight + n
  end;
  t.sent <- t.sent + paid

let broadcast t ~src ~due msg =
  check_pid t src "Network.broadcast src";
  if t.p > 1 then begin
    if due < t.last_due then
      invalid_arg "Network.broadcast: due times must be non-decreasing";
    (* the entry would land behind that receiver's cursor *)
    if due <= t.polled then
      invalid_arg "Network.broadcast: due at or before a receiver's clock";
    t.last_due <- due;
    let id = open_record t ~src msg in
    if t.tail - t.head = Array.length t.l_due then grow_log t;
    let mask = Array.length t.l_due - 1 in
    let k = t.tail in
    let i = k land mask in
    Array.unsafe_set t.l_due i due;
    Array.unsafe_set t.l_id i id;
    Array.unsafe_set t.l_src i src;
    (* the cursors at the tail now sit on this entry *)
    Array.unsafe_set t.l_at i t.at_tail;
    t.at_tail <- 0;
    Array.unsafe_set t.l_next i none;
    (* A deactivated source (a Channel station still transmitting) is
       not linked: its latest entry may be released and its slot
       reused. An active source's latest entry is still in the log
       while its [own_next] names an entry. *)
    if Array.unsafe_get t.active src then begin
      if Array.unsafe_get t.own_next src = none then
        Array.unsafe_set t.own_next src k
      else
        Array.unsafe_set t.l_next (Array.unsafe_get t.last_own src land mask) k;
      Array.unsafe_set t.last_own src k
    end;
    t.tail <- k + 1
  end;
  (* one multicast = p - 1 point-to-point messages (Definition 2.2),
     however it is stored *)
  t.sent <- t.sent + (t.p - 1);
  t.in_flight <- t.in_flight + (t.p - 1)

let deactivate t ~pid =
  check_pid t pid "Network.deactivate";
  if Array.unsafe_get t.active pid then begin
    t.active.(pid) <- false;
    let c = t.cursor.(pid) in
    if c < t.tail then begin
      let i = c land (Array.length t.l_due - 1) in
      t.l_at.(i) <- t.l_at.(i) - 1
    end
    else t.at_tail <- t.at_tail - 1;
    if t.head < t.tail then reclaim t
  end

let receive_iter t ~dst ~now f =
  check_pid t dst "Network.receive_iter";
  if now > t.polled then t.polled <- now;
  if now > Array.unsafe_get t.seen dst then Array.unsafe_set t.seen dst now;
  match Array.unsafe_get t.rings dst with
  | None ->
    (* the common broadcast-only case: one index, no merge; with a
       digest fold this is the chain fast path *)
    drain t ~dst ~now f
  | Some ring ->
    let n = ref 0 in
    let continue = ref true in
    while !continue do
      let has_u = Msg_ring.peek ring ~now in
      let has_b = peek t ~dst ~now in
      let take_unicast =
        has_u
        && ((not has_b)
           ||
           let i = slot t dst in
           let ud = Msg_ring.head_due ring
           and bd = Array.unsafe_get t.l_due i in
           ud < bd
           || ud = bd
              && Array.unsafe_get t.rec_seq (Msg_ring.head_id ring)
                 < Array.unsafe_get t.rec_seq (Array.unsafe_get t.l_id i))
      in
      if take_unicast then begin
        let id = Msg_ring.head_id ring in
        let src = Array.unsafe_get t.rec_src id
        and msg = Array.unsafe_get t.rec_msg id in
        Msg_ring.pop ring;
        drop_copy t id;
        t.in_flight <- t.in_flight - 1;
        incr n;
        f src msg
      end
      else if has_b then begin
        pop t ~dst f;
        incr n
      end
      else continue := false
    done;
    !n

let stream_stats t =
  let words =
    match t.chain with Some d -> Obj.reachable_words (Obj.repr d) | None -> 0
  in
  (t.tail - t.head, words)

let pending t = t.in_flight

let sent t = t.sent
