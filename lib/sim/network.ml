(* See network.mli. Per-destination struct-of-arrays calendar rings
   (Msg_ring) merged with the shared broadcast stream (Bcast) under one
   total (due, seq) key. [seq] is a single network-wide send counter, so
   relative order per destination is exactly send order. *)

type 'msg t = {
  p : int;
  rings : 'msg Msg_ring.t option array; (* per dst, made on first send *)
  horizon : int;
  bcast : 'msg Bcast.t;
  mutable sent : int;
  mutable in_flight : int; (* queued but not yet received, O(1) pending *)
  mutable seq : int;
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

let enqueue t ~src ~dst ~due msg name =
  (* one test on the per-copy path; the error text is built only when
     it fails, with the same precedence: src range, dst range, self *)
  if src < 0 || src >= t.p || dst < 0 || dst >= t.p || src = dst then begin
    check_pid t src (name ^ " src");
    check_pid t dst (name ^ " dst");
    invalid_arg (name ^ ": self-send")
  end;
  Msg_ring.add (ring_for t dst) ~due ~src ~seq:(next_seq t) msg;
  t.in_flight <- t.in_flight + 1

let send t ~src ~dst ~due msg =
  enqueue t ~src ~dst ~due msg "Network.send";
  t.sent <- t.sent + 1

let send_replica t ~src ~dst ~due msg =
  enqueue t ~src ~dst ~due msg "Network.send_replica"

let count_lost t = t.sent <- t.sent + 1

let broadcast t ~src ~due msg =
  check_pid t src "Network.broadcast src";
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
            || (ud = bd && Msg_ring.head_seq ring < Bcast.head_seq bcast ~dst)
           )
      in
      if take_unicast then begin
        let src = Msg_ring.head_src ring and msg = Msg_ring.head_msg ring in
        Msg_ring.pop ring;
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
