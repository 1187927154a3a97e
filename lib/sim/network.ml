(* See network.mli. Per-destination struct-of-arrays calendar rings
   (Msg_ring) merged with the shared broadcast stream (Bcast) under one
   total (due, seq) key. [seq] is a single network-wide send counter, so
   relative order per destination is exactly send order.

   A ring entry is two ints, (due, id): [id] names a record of the
   payload table, which holds each multicast's [src], [seq] and payload
   once however many copies are queued. [enqueue] reuses the previous
   send's record when the source is the same and the payload physically
   equal, which is what a multicast's per-destination send loop (and its
   replicas and reorders) looks like; otherwise it opens a record, which
   draws the next [seq]. Sharing one [seq] among copies keeps the merge
   exact: every copy of a record is sent before the next broadcast,
   because {!broadcast} drops the reuse cache. A record is released
   when its last queued copy is received. *)

type 'msg t = {
  p : int;
  rings : Msg_ring.t option array; (* per dst, made on first send *)
  horizon : int;
  bcast : 'msg Bcast.t;
  mutable sent : int;
  mutable in_flight : int; (* queued but not yet received, O(1) pending *)
  mutable seq : int;
  (* payload table, one record per multicast; ids below [opened] are
     live or on the [free] stack *)
  mutable rec_src : int array;
  mutable rec_seq : int array;
  mutable rec_msg : 'msg array;
  mutable rec_copies : int array; (* copies still queued *)
  mutable free : int array;
  mutable n_free : int;
  mutable opened : int;
  mutable last : int; (* the previous send's record, or -1 *)
  mutable filler : 'msg option; (* overwrites released slots *)
}

let create ?digest ~horizon ~p () =
  if p <= 0 then invalid_arg "Network.create: need at least one processor";
  if horizon < 1 then invalid_arg "Network.create: horizon must be >= 1";
  {
    p;
    rings = Array.make p None;
    horizon;
    bcast = Bcast.create ?fold:digest ~p ();
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
    last = -1;
    filler = None;
  }

let p t = t.p

let check_pid t pid name =
  if pid < 0 || pid >= t.p then invalid_arg (name ^ ": pid out of range")

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let ring_for t dst =
  match Array.unsafe_get t.rings dst with
  | Some r -> r
  | None ->
    let r = Msg_ring.create ~horizon:t.horizon () in
    t.rings.(dst) <- Some r;
    r

let grow t msg =
  let cap = Array.length t.rec_src in
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
  Array.unsafe_set t.rec_seq id (next_seq t);
  Array.unsafe_set t.rec_msg id msg;
  Array.unsafe_set t.rec_copies id 0;
  t.last <- id;
  id

(* one copy of record [id] was received: release the record with its
   last copy, so the table holds no payload nobody will receive *)
let drop_copy t id =
  let c = Array.unsafe_get t.rec_copies id - 1 in
  Array.unsafe_set t.rec_copies id c;
  if c = 0 then begin
    (match t.filler with
     | Some f -> Array.unsafe_set t.rec_msg id f
     | None -> ());
    Array.unsafe_set t.free t.n_free id;
    t.n_free <- t.n_free + 1;
    if t.last = id then t.last <- -1
  end

let enqueue t ~src ~dst ~due msg name =
  (* one test on the per-copy path; the error text is built only when
     it fails, with the same precedence: src range, dst range, self *)
  if src < 0 || src >= t.p || dst < 0 || dst >= t.p || src = dst then begin
    check_pid t src (name ^ " src");
    check_pid t dst (name ^ " dst");
    invalid_arg (name ^ ": self-send")
  end;
  let last = t.last in
  let id =
    if
      last >= 0
      && Array.unsafe_get t.rec_src last = src
      && Array.unsafe_get t.rec_msg last == msg
    then last
    else open_record t ~src msg
  in
  Msg_ring.add (ring_for t dst) ~due ~id;
  Array.unsafe_set t.rec_copies id (Array.unsafe_get t.rec_copies id + 1);
  t.in_flight <- t.in_flight + 1

let send t ~src ~dst ~due msg =
  enqueue t ~src ~dst ~due msg "Network.send";
  t.sent <- t.sent + 1

let send_replica t ~src ~dst ~due msg =
  enqueue t ~src ~dst ~due msg "Network.send_replica"

let count_lost t = t.sent <- t.sent + 1

let broadcast t ~src ~due msg =
  check_pid t src "Network.broadcast src";
  (* a later unicast must draw a later [seq] than this record *)
  t.last <- -1;
  if t.p > 1 then Bcast.add t.bcast ~due ~src ~seq:(next_seq t) msg;
  (* one multicast = p - 1 point-to-point messages (Definition 2.2),
     however it is stored *)
  t.sent <- t.sent + (t.p - 1);
  t.in_flight <- t.in_flight + (t.p - 1)

let deactivate t ~pid =
  check_pid t pid "Network.deactivate";
  Bcast.deactivate t.bcast ~pid

let receive_iter t ~dst ~now f =
  check_pid t dst "Network.receive_iter";
  let bcast = t.bcast in
  match Array.unsafe_get t.rings dst with
  | None ->
    (* the common broadcast-only case: one stream, no merge; with a
       digest fold this is the epoch fast path — [n] counts logical
       deliveries even when whole epochs collapse to one callback *)
    let n = Bcast.drain bcast ~dst ~now f in
    t.in_flight <- t.in_flight - n;
    n
  | Some ring ->
    let n = ref 0 in
    let continue = ref true in
    while !continue do
      let has_u = Msg_ring.peek ring ~now in
      let has_b = Bcast.peek bcast ~dst ~now in
      let take_unicast =
        has_u
        && ((not has_b)
            ||
            let ud = Msg_ring.head_due ring
            and bd = Bcast.head_due bcast ~dst in
            ud < bd
            || ud = bd
               && Array.unsafe_get t.rec_seq (Msg_ring.head_id ring)
                  < Bcast.head_seq bcast ~dst
           )
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
        let src = Bcast.head_src bcast ~dst
        and msg = Bcast.head_msg bcast ~dst in
        Bcast.pop bcast ~dst;
        t.in_flight <- t.in_flight - 1;
        incr n;
        f src msg
      end
      else continue := false
    done;
    !n

let receive t ~dst ~now =
  let acc = ref [] in
  let _ : int = receive_iter t ~dst ~now (fun src msg -> acc := (src, msg) :: !acc) in
  List.rev !acc

let stream_stats t = Bcast.stats t.bcast

let pending t = t.in_flight

let sent t = t.sent
