(* See channel.mli. One frame queue per station (a station transmits at
   most one frame per slot, oldest first), one delivery queue per
   destination. Resolution happens once per slot in ascending slot
   order, so inbox queues are enqueued with non-decreasing due times and
   receive_iter only ever inspects the head. *)

type 'msg frame = {
  f_bcast : 'msg option;
  f_unis : (int * 'msg) list;
  f_sent : int; (* logical messages (the M units paid at submission) *)
  f_fan : int; (* deliveries on success: (p - 1 if broadcast) + unicasts *)
  mutable f_release : int; (* first slot at which the frame contends *)
}

type 'msg delivery = { due : int; d_src : int; d_msg : 'msg }

type 'msg t = {
  p : int;
  collision : Config.collision;
  stations : 'msg frame Queue.t array; (* per src: local transmit queue *)
  inbox : 'msg delivery Queue.t array; (* per dst: resolved deliveries *)
  mutable sent : int;
  mutable in_flight : int; (* deliveries owed, O(1) pending *)
  mutable n_collisions : int;
  mutable n_busy : int;
  mutable n_success : int;
  mutable n_lost : int;
  mutable last_slot : int; (* slots resolve in strictly increasing order *)
}

let create ~p ~collision () =
  if p <= 0 then invalid_arg "Channel.create: need at least one processor";
  {
    p;
    collision;
    stations = Array.init p (fun _ -> Queue.create ());
    inbox = Array.init p (fun _ -> Queue.create ());
    sent = 0;
    in_flight = 0;
    n_collisions = 0;
    n_busy = 0;
    n_success = 0;
    n_lost = 0;
    last_slot = min_int;
  }

let p t = t.p
let collision t = t.collision

let check_pid t pid name =
  if pid < 0 || pid >= t.p then invalid_arg (name ^ ": pid out of range")

let transmit t ~src ~release ?bcast ~unis () =
  check_pid t src "Channel.transmit src";
  List.iter
    (fun (dst, _) ->
      check_pid t dst "Channel.transmit dst";
      if dst = src then invalid_arg "Channel.transmit: self-send")
    unis;
  let n_unis = List.length unis in
  let logical = (match bcast with Some _ -> 1 | None -> 0) + n_unis in
  if logical = 0 then invalid_arg "Channel.transmit: empty frame";
  let fan =
    (match bcast with Some _ -> t.p - 1 | None -> 0) + n_unis
  in
  Queue.add
    { f_bcast = bcast; f_unis = unis; f_sent = logical; f_fan = fan;
      f_release = release }
    t.stations.(src);
  t.sent <- t.sent + logical;
  t.in_flight <- t.in_flight + fan

let silence t ~pid =
  check_pid t pid "Channel.silence";
  let q = t.stations.(pid) in
  Queue.iter
    (fun f ->
      t.n_lost <- t.n_lost + f.f_sent;
      t.in_flight <- t.in_flight - f.f_fan)
    q;
  Queue.clear q

type slot = {
  slot_busy : bool;
  slot_collided : bool;
  slot_delivered : int;
}

let deliver t ~now ~src f =
  let due = now + 1 in
  (match f.f_bcast with
   | Some m ->
     for dst = 0 to t.p - 1 do
       if dst <> src then Queue.add { due; d_src = src; d_msg = m } t.inbox.(dst)
     done
   | None -> ());
  List.iter
    (fun (dst, m) -> Queue.add { due; d_src = src; d_msg = m } t.inbox.(dst))
    f.f_unis;
  (* logical messages, matching the channel's M measure: a delivered
     broadcast counts 1 even though it fans out to p - 1 inboxes *)
  f.f_sent

(* the deterministic TDMA backoff: the next slot u > now in [src]'s
   residue class mod p — distinct transmitters land in distinct slots *)
let backoff_slot ~p ~now ~src =
  let r = (src - (now + 1)) mod p in
  now + 1 + (if r < 0 then r + p else r)

let resolve t ~now ?arbitrate () =
  if now <= t.last_slot then
    invalid_arg "Channel.resolve: slots must resolve in increasing order";
  t.last_slot <- now;
  let contenders = ref [] in
  for src = t.p - 1 downto 0 do
    match Queue.peek_opt t.stations.(src) with
    | Some f when f.f_release <= now -> contenders := src :: !contenders
    | Some _ | None -> ()
  done;
  match !contenders with
  | [] -> { slot_busy = false; slot_collided = false; slot_delivered = 0 }
  | [ src ] ->
    let f = Queue.pop t.stations.(src) in
    t.n_busy <- t.n_busy + 1;
    t.n_success <- t.n_success + 1;
    let delivered = deliver t ~now ~src f in
    { slot_busy = true; slot_collided = false; slot_delivered = delivered }
  | contenders -> (
    t.n_busy <- t.n_busy + 1;
    let order =
      match arbitrate with
      | None -> None
      | Some f -> (
        let arr = Array.of_list contenders in
        match f (Array.copy arr) with
        | None -> None (* the adversary declines: let this slot collide *)
        | Some perm ->
          (* the order must be a permutation of the contenders: same
             length, same members ([arr] is ascending, so sorting a copy
             of [perm] must reproduce it) *)
          let sorted = Array.copy perm in
          Array.sort compare sorted;
          if sorted <> arr then
            invalid_arg
              "Channel.resolve: arbitration did not return a permutation of \
               the contenders";
          Some perm)
    in
    match order with
    | Some perm ->
      (* ordered adversary: the head transmits alone, the rest are
         deferred to the next slot (where they contend again) *)
      let winner = perm.(0) in
      let f = Queue.pop t.stations.(winner) in
      for i = 1 to Array.length perm - 1 do
        (Queue.peek t.stations.(perm.(i))).f_release <- now + 1
      done;
      t.n_success <- t.n_success + 1;
      let delivered = deliver t ~now ~src:winner f in
      { slot_busy = true; slot_collided = false; slot_delivered = delivered }
    | None ->
      (* a genuine collision *)
      t.n_collisions <- t.n_collisions + 1;
      (match t.collision with
       | Config.Silent ->
         List.iter
           (fun src ->
             let f = Queue.pop t.stations.(src) in
             t.n_lost <- t.n_lost + f.f_sent;
             t.in_flight <- t.in_flight - f.f_fan)
           contenders
       | Config.Detectable ->
         List.iter
           (fun src ->
             (Queue.peek t.stations.(src)).f_release <-
               backoff_slot ~p:t.p ~now ~src)
           contenders);
      { slot_busy = true; slot_collided = true; slot_delivered = 0 })

let receive_iter t ~dst ~now f =
  check_pid t dst "Channel.receive_iter";
  let q = t.inbox.(dst) in
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt q with
    | Some dv when dv.due <= now ->
      ignore (Queue.pop q);
      t.in_flight <- t.in_flight - 1;
      incr n;
      f dv.d_src dv.d_msg
    | Some _ | None -> continue := false
  done;
  !n

let pending t = t.in_flight

let sent t = t.sent
let collisions t = t.n_collisions
let busy_slots t = t.n_busy
let successes t = t.n_success
let lost t = t.n_lost
