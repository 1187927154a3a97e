(* A list reference for Channel: each station is a list of frames,
   oldest first; a resolved frame becomes p - 1 broadcast copies then
   its unicasts, each tagged with a channel-wide delivery counter, in
   one list; a receiver takes its due copies in (due, counter) order.
   Contenders are found by scanning every station, and an arbitration
   order is checked by sorting. Quadratic and obviously right — the
   oracle the ring-and-Network channel is tested against. *)

type 'msg frame = {
  bcast : 'msg option;
  unis : (int * 'msg) list;
  mutable release : int;
}

type 'msg t = {
  p : int;
  collision : Doall_sim.Config.collision;
  stations : 'msg frame list array; (* per src, oldest first *)
  mutable queued : (int * int * int * int * 'msg) list; (* due, seq, src, dst *)
  mutable seq : int;
  mutable sent : int;
  mutable lost : int;
  mutable collisions : int;
  mutable busy : int;
  mutable successes : int;
  mutable last_slot : int;
  mutable last_receive : int;
}

let create ~p ~collision =
  {
    p;
    collision;
    stations = Array.make p [];
    queued = [];
    seq = 0;
    sent = 0;
    lost = 0;
    collisions = 0;
    busy = 0;
    successes = 0;
    last_slot = min_int;
    last_receive = min_int;
  }

let check_pid t pid name =
  if pid < 0 || pid >= t.p then invalid_arg (name ^ ": pid out of range")

let logical f = (if f.bcast = None then 0 else 1) + List.length f.unis
let fan t f = (if f.bcast = None then 0 else t.p - 1) + List.length f.unis

let transmit t ~src ~release ?bcast ~unis () =
  check_pid t src "Channel.transmit src";
  List.iter
    (fun (dst, _) ->
      check_pid t dst "Channel.transmit dst";
      if dst = src then invalid_arg "Channel.transmit: self-send")
    unis;
  let f = { bcast; unis; release } in
  if logical f = 0 then invalid_arg "Channel.transmit: empty frame";
  t.stations.(src) <- t.stations.(src) @ [ f ];
  t.sent <- t.sent + logical f

let lose t f = t.lost <- t.lost + logical f

let silence t ~pid =
  check_pid t pid "Channel.silence";
  List.iter (lose t) t.stations.(pid);
  t.stations.(pid) <- []

let pop t src =
  match t.stations.(src) with
  | f :: rest ->
    t.stations.(src) <- rest;
    f
  | [] -> assert false

let head t src = List.hd t.stations.(src)

let enqueue t ~due ~src ~dst msg =
  t.queued <- (due, t.seq, src, dst, msg) :: t.queued;
  t.seq <- t.seq + 1

let deliver t ~now ~src f =
  let due = now + 1 in
  Option.iter
    (fun m ->
      for dst = 0 to t.p - 1 do
        if dst <> src then enqueue t ~due ~src ~dst m
      done)
    f.bcast;
  List.iter (fun (dst, m) -> enqueue t ~due ~src ~dst m) f.unis;
  t.successes <- t.successes + 1;
  Doall_sim.Channel.Delivered

let backoff ~p ~now ~src =
  let u = ref (now + 1) in
  while !u mod p <> src do incr u done;
  !u

(* A rejected call changes nothing: every check comes first. *)
let resolve t ~now ?arbitrate () =
  if now <= t.last_slot then
    invalid_arg "Channel.resolve: slots must resolve in increasing order";
  if now < t.last_receive then
    invalid_arg "Channel.resolve: slot before a receiver's clock";
  let contenders =
    List.filter
      (fun src -> match t.stations.(src) with
         | f :: _ -> f.release <= now
         | [] -> false)
      (List.init t.p Fun.id)
  in
  let order =
    match (contenders, arbitrate) with
    | _ :: _ :: _, Some g -> (
      match g (Array.of_list contenders) with
      | None -> None
      | Some perm ->
        if List.sort compare (Array.to_list perm) <> contenders then
          invalid_arg
            "Channel.resolve: arbitration did not return a permutation of \
             the contenders";
        Some (Array.to_list perm))
    | _ -> None
  in
  t.last_slot <- now;
  match contenders with
  | [] ->
    Doall_sim.Channel.Idle
  | [ src ] ->
    t.busy <- t.busy + 1;
    deliver t ~now ~src (pop t src)
  | _ -> (
    t.busy <- t.busy + 1;
    match order with
    | Some (winner :: deferred) ->
      List.iter (fun src -> (head t src).release <- now + 1) deferred;
      deliver t ~now ~src:winner (pop t winner)
    | Some [] -> assert false
    | None ->
      t.collisions <- t.collisions + 1;
      List.iter
        (fun src ->
          match t.collision with
          | Doall_sim.Config.Silent -> lose t (pop t src)
          | Doall_sim.Config.Detectable ->
            (head t src).release <- backoff ~p:t.p ~now ~src)
        contenders;
      Doall_sim.Channel.Collided)

let receive_iter t ~dst ~now f =
  check_pid t dst "Channel.receive_iter";
  t.last_receive <- max t.last_receive now;
  let mine, rest =
    List.partition (fun (due, _, _, d, _) -> d = dst && due <= now) t.queued
  in
  t.queued <- rest;
  let key (due, seq, _, _, _) = (due, seq) in
  let mine = List.sort (fun a b -> compare (key a) (key b)) mine in
  List.iter (fun (_, _, src, _, msg) -> f src msg) mine;
  List.length mine

let pending t =
  Array.fold_left
    (fun acc frames -> List.fold_left (fun acc f -> acc + fan t f) acc frames)
    (List.length t.queued) t.stations

let sent t = t.sent
let lost t = t.lost
let collisions t = t.collisions
let busy_slots t = t.busy
let successes t = t.successes
