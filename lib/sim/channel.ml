(* See channel.mli. Each station is a circular struct-of-arrays FIFO of
   frames (a station transmits at most one frame per slot, oldest
   first) whose columns are the broadcast option, the unicast list and
   the release slot the caller handed over, so queuing a frame
   allocates nothing once the columns have grown. A resolved frame goes
   into an embedded Network, due at the next slot: its broadcast as one
   shared record, each unicast as one ring entry. Slots resolve in
   strictly increasing order and a slot delivers at most one frame, so
   Network's (due, seq) merge hands each destination its deliveries in
   slot order, a frame's broadcast before its unicasts. *)

type 'msg station = {
  mutable bcast : 'msg option array;
  mutable unis : (int * 'msg) list array;
  mutable release : int array;
  mutable head : int;
  mutable len : int;
}

type 'msg t = {
  p : int;
  collision : Config.collision;
  stations : 'msg station array;
  net : 'msg Network.t; (* resolved deliveries, due one slot later *)
  uni_dst : int array; (* a unicast's one copy, reused by every call *)
  uni_due : int array;
  contenders : int array; (* this slot's contending pids, ascending *)
  stamp : int array; (* per pid: the last permutation check that saw it *)
  mutable generation : int;
  mutable queued_fan : int; (* deliveries owed by frames still queued *)
  mutable sent : int;
  mutable n_collisions : int;
  mutable n_busy : int;
  mutable n_success : int;
  mutable n_lost : int;
  mutable last_slot : int; (* slots resolve in strictly increasing order *)
  mutable last_receive : int; (* the greatest [now] a receive has seen *)
}

let create ~p ~collision () =
  if p <= 0 then invalid_arg "Channel.create: need at least one processor";
  {
    p;
    collision;
    stations =
      Array.init p (fun _ ->
          { bcast = [||]; unis = [||]; release = [||]; head = 0; len = 0 });
    net = Network.create ~horizon:1 ~p ();
    uni_dst = [| 0 |];
    uni_due = [| 0 |];
    contenders = Array.make p 0;
    stamp = Array.make p 0;
    generation = 0;
    queued_fan = 0;
    sent = 0;
    n_collisions = 0;
    n_busy = 0;
    n_success = 0;
    n_lost = 0;
    last_slot = min_int;
    last_receive = min_int;
  }

let p t = t.p
let collision t = t.collision

let check_pid t pid name =
  if pid < 0 || pid >= t.p then invalid_arg (name ^ ": pid out of range")

(* logical messages (the M units paid at submission) and deliveries on
   success ((p - 1 if broadcast) + unicasts) of one frame *)
let logical bcast unis =
  (match bcast with Some _ -> 1 | None -> 0) + List.length unis

let fan t bcast unis =
  (match bcast with Some _ -> t.p - 1 | None -> 0) + List.length unis

let push st ~release bcast unis =
  let cap = Array.length st.release in
  if st.len = cap then begin
    (* full (or never allocated): grow to the next power of two *)
    let cap' = if cap = 0 then 4 else 2 * cap in
    let bcast' = Array.make cap' None
    and unis' = Array.make cap' []
    and release' = Array.make cap' 0 in
    for i = 0 to st.len - 1 do
      let j = (st.head + i) land (cap - 1) in
      bcast'.(i) <- st.bcast.(j);
      unis'.(i) <- st.unis.(j);
      release'.(i) <- st.release.(j)
    done;
    st.bcast <- bcast';
    st.unis <- unis';
    st.release <- release';
    st.head <- 0
  end;
  let at = (st.head + st.len) land (Array.length st.release - 1) in
  Array.unsafe_set st.bcast at bcast;
  Array.unsafe_set st.unis at unis;
  Array.unsafe_set st.release at release;
  st.len <- st.len + 1

(* drop the head frame, clearing its slots so the ring holds no payload
   nobody will receive *)
let drop_head st =
  Array.unsafe_set st.bcast st.head None;
  Array.unsafe_set st.unis st.head [];
  st.head <- (st.head + 1) land (Array.length st.release - 1);
  st.len <- st.len - 1

let rec check_unis t ~src = function
  | [] -> ()
  | (dst, _) :: rest ->
    check_pid t dst "Channel.transmit dst";
    if dst = src then invalid_arg "Channel.transmit: self-send";
    check_unis t ~src rest

let transmit t ~src ~release ?bcast ~unis () =
  check_pid t src "Channel.transmit src";
  check_unis t ~src unis;
  let logical = logical bcast unis in
  if logical = 0 then invalid_arg "Channel.transmit: empty frame";
  push t.stations.(src) ~release bcast unis;
  t.sent <- t.sent + logical;
  t.queued_fan <- t.queued_fan + fan t bcast unis

(* the head frame of [st] is discarded undelivered *)
let lose_head t st =
  let bcast = Array.unsafe_get st.bcast st.head
  and unis = Array.unsafe_get st.unis st.head in
  t.n_lost <- t.n_lost + logical bcast unis;
  t.queued_fan <- t.queued_fan - fan t bcast unis;
  drop_head st

let silence t ~pid =
  check_pid t pid "Channel.silence";
  let st = t.stations.(pid) in
  while st.len > 0 do
    lose_head t st
  done

let deactivate t ~pid =
  check_pid t pid "Channel.deactivate";
  Network.deactivate t.net ~pid

type slot = Idle | Collided | Delivered

let rec send_unis t ~src ~now = function
  | [] -> ()
  | (dst, m) :: rest ->
    t.uni_dst.(0) <- dst;
    t.uni_due.(0) <- now + 1;
    Network.multicast t.net ~src ~now ~dsts:t.uni_dst ~dues:t.uni_due ~n:1
      ~paid:1 m;
    send_unis t ~src ~now rest

(* [src]'s head frame transmits alone in slot [now] *)
let deliver t ~now ~src =
  let st = t.stations.(src) in
  let bcast = Array.unsafe_get st.bcast st.head
  and unis = Array.unsafe_get st.unis st.head in
  drop_head st;
  (match bcast with
   | Some m -> Network.broadcast t.net ~src ~due:(now + 1) m
   | None -> ());
  send_unis t ~src ~now unis;
  t.queued_fan <- t.queued_fan - fan t bcast unis;
  t.n_success <- t.n_success + 1;
  Delivered

(* the deterministic TDMA backoff: the next slot u > now in [src]'s
   residue class mod p — distinct transmitters land in distinct slots *)
let backoff_slot ~p ~now ~src =
  let r = (src - (now + 1)) mod p in
  now + 1 + (if r < 0 then r + p else r)

let defer t src ~release =
  let st = t.stations.(src) in
  Array.unsafe_set st.release st.head release

(* [perm] must be a permutation of the [n] contenders: each entry a
   contender (stamped [g]) seen once (then restamped [g + 1]) *)
let check_permutation t n perm =
  let g = t.generation + 2 in
  t.generation <- g;
  for i = 0 to n - 1 do
    Array.unsafe_set t.stamp (Array.unsafe_get t.contenders i) g
  done;
  let ok = ref (Array.length perm = n) in
  for i = 0 to Array.length perm - 1 do
    let src = perm.(i) in
    if src < 0 || src >= t.p || Array.unsafe_get t.stamp src <> g then
      ok := false
    else Array.unsafe_set t.stamp src (g + 1)
  done;
  if not !ok then
    invalid_arg
      "Channel.resolve: arbitration did not return a permutation of the \
       contenders"

(* Every check runs before the first write, so a rejected call leaves
   the channel as it was and the slot may be resolved again. *)
let resolve t ~now ?arbitrate () =
  if now <= t.last_slot then
    invalid_arg "Channel.resolve: slots must resolve in increasing order";
  if now < t.last_receive then
    invalid_arg "Channel.resolve: slot before a receiver's clock";
  let n = ref 0 in
  for src = 0 to t.p - 1 do
    let st = Array.unsafe_get t.stations src in
    if st.len > 0 && Array.unsafe_get st.release st.head <= now then begin
      Array.unsafe_set t.contenders !n src;
      incr n
    end
  done;
  let n = !n in
  let order =
    match arbitrate with
    | Some f when n > 1 -> f (Array.sub t.contenders 0 n)
    | _ -> None
  in
  (match order with Some perm -> check_permutation t n perm | None -> ());
  t.last_slot <- now;
  if n = 0 then Idle
  else begin
    t.n_busy <- t.n_busy + 1;
    if n = 1 then deliver t ~now ~src:t.contenders.(0)
    else
      match order with
      | Some perm ->
        (* ordered adversary: the head transmits alone, the rest are
           deferred to the next slot (where they contend again) *)
        for i = 1 to n - 1 do
          defer t perm.(i) ~release:(now + 1)
        done;
        deliver t ~now ~src:perm.(0)
      | None ->
        (* a genuine collision: no arbitration, or the adversary
           declined *)
        t.n_collisions <- t.n_collisions + 1;
        for i = 0 to n - 1 do
          let src = t.contenders.(i) in
          match t.collision with
          | Config.Silent -> lose_head t t.stations.(src)
          | Config.Detectable ->
            defer t src ~release:(backoff_slot ~p:t.p ~now ~src)
        done;
        Collided
  end

let receive_iter t ~dst ~now f =
  check_pid t dst "Channel.receive_iter";
  if now > t.last_receive then t.last_receive <- now;
  Network.receive_iter t.net ~dst ~now f

let pending t = t.queued_fan + Network.pending t.net

let sent t = t.sent
let collisions t = t.n_collisions
let busy_slots t = t.n_busy
let successes t = t.n_success
let lost t = t.n_lost
