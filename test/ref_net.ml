(* A list reference for Network: every message sits in one list tagged
   with a network-wide send counter, a receiver takes its due messages
   in (due, send order), and a multicast is p - 1 sends (Definition 2.2).
   Quadratic and obviously right — the oracle the calendar-ring network
   is tested against. *)

type 'msg t = {
  p : int;
  mutable queued : (int * int * int * int * 'msg) list; (* due, seq, src, dst *)
  mutable seq : int;
  mutable sent : int;
}

let create ~p = { p; queued = []; seq = 0; sent = 0 }

let send t ~src ~dst ~due msg =
  t.queued <- (due, t.seq, src, dst, msg) :: t.queued;
  t.seq <- t.seq + 1;
  t.sent <- t.sent + 1

let broadcast t ~src ~due msg =
  for dst = 0 to t.p - 1 do
    if dst <> src then send t ~src ~dst ~due msg
  done

let receive t ~dst ~now =
  let mine, rest =
    List.partition (fun (due, _, _, d, _) -> d = dst && due <= now) t.queued
  in
  t.queued <- rest;
  let key (due, seq, _, _, _) = (due, seq) in
  List.sort (fun a b -> compare (key a) (key b)) mine
  |> List.map (fun (_, _, src, _, msg) -> (src, msg))

let receive_iter t ~dst ~now f =
  let got = receive t ~dst ~now in
  List.iter (fun (src, msg) -> f src msg) got;
  List.length got

let sent t = t.sent
let pending t = List.length t.queued
