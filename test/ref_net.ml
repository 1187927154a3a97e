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

(* Record-set payloads, for comparing a digest path with the reference.
   A payload is a set of [(src, id)] records, ids drawn in send order,
   and a digest is the union of its inputs. The union is idempotent, as
   the knowledge unions a digest stands for are, so a chained digest may
   carry records its receiver already holds. An [arrivals] log keeps a
   receiver's records in order of first arrival, which is all a union
   receive can observe; the receiver's own records are left out, since
   it holds its own broadcasts. Within one callback the new records are
   taken in id order: one digest delivers one epoch, all due at once. *)
let union ms = List.sort_uniq compare (List.concat (Array.to_list ms))

type arrivals = {
  dst : int;
  seen : (int * int, unit) Hashtbl.t;
  mutable order : (int * int) list; (* newest first *)
}

let arrivals ~dst = { dst; seen = Hashtbl.create 16; order = [] }

(* Logs one callback's payload. False if a per-record callback
   ([src >= 0]) repeats a record or carries one of [dst]'s own: only a
   digest ([src = -1]) may repeat what the receiver holds. *)
let arrive a ~src msg =
  let fresh =
    List.filter
      (fun ((s, _) as r) -> s <> a.dst && not (Hashtbl.mem a.seen r))
      msg
  in
  List.iter (fun r -> Hashtbl.replace a.seen r ()) fresh;
  a.order <-
    List.rev_append (List.sort (fun (_, i) (_, j) -> compare i j) fresh) a.order;
  src < 0 || List.length fresh = List.length msg
