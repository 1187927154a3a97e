open Doall_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Unit tests that drive a network directly use the sender's clock 0, so
   their horizon must cover their largest due. *)

(* [(sender, message)] pairs due at or before [now], consumed, in
   delivery order *)
let receive net ~dst ~now =
  let acc = ref [] in
  let _ : int =
    Network.receive_iter net ~dst ~now (fun src msg -> acc := (src, msg) :: !acc)
  in
  List.rev !acc

(* One [Network.multicast] call: copy [i] of [copies] goes to its dst at
   its due, and [paid] messages count toward [sent] (by default one per
   copy, as for a multicast no fault touched). *)
let multicast ?paid net ~src ~now copies m =
  let dsts = Array.of_list (List.map fst copies)
  and dues = Array.of_list (List.map snd copies) in
  let n = Array.length dsts in
  Network.multicast net ~src ~now ~dsts ~dues ~n
    ~paid:(Option.value paid ~default:n)
    m

(* A unicast from a sender whose clock reads [now] (0 unless given): one
   copy, one message paid. *)
let send ?(now = 0) net ~src ~dst ~due m =
  multicast net ~src ~now [ (dst, due) ] m

let test_send_receive () =
  let net = Network.create ~horizon:8 ~p:3 () in
  send net ~src:0 ~dst:1 ~due:5 "hello";
  Alcotest.(check (list (pair int string))) "not yet" []
    (receive net ~dst:1 ~now:4);
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ]
    (receive net ~dst:1 ~now:5);
  Alcotest.(check (list (pair int string))) "consumed" []
    (receive net ~dst:1 ~now:5)

let test_no_self_send () =
  let net = Network.create ~horizon:1 ~p:2 () in
  Alcotest.check_raises "self send"
    (Invalid_argument "Network.multicast: self-send") (fun () ->
      send net ~src:1 ~dst:1 ~due:1 ())

let test_pid_range () =
  let net = Network.create ~horizon:1 ~p:2 () in
  Alcotest.check_raises "bad dst"
    (Invalid_argument "Network.multicast dst: pid out of range") (fun () ->
      send net ~src:0 ~dst:5 ~due:1 ())

let test_send_src_range () =
  let net = Network.create ~horizon:1 ~p:2 () in
  Alcotest.check_raises "bad src"
    (Invalid_argument "Network.multicast src: pid out of range") (fun () ->
      send net ~src:(-1) ~dst:1 ~due:1 ());
  (* src is checked first, even when the send is also a self-send *)
  Alcotest.check_raises "bad src = dst"
    (Invalid_argument "Network.multicast src: pid out of range") (fun () ->
      send net ~src:2 ~dst:2 ~due:1 ())

(* A replica is a copy the algorithm did not pay for: a repeated dst,
   [paid] below the copies. Its dst is checked like any copy's. *)
let test_replica_errors () =
  let net = Network.create ~horizon:1 ~p:2 () in
  Alcotest.check_raises "self send"
    (Invalid_argument "Network.multicast: self-send") (fun () ->
      multicast ~paid:1 net ~src:0 ~now:0 [ (1, 1); (0, 1) ] ());
  Alcotest.check_raises "bad dst"
    (Invalid_argument "Network.multicast dst: pid out of range") (fun () ->
      multicast ~paid:0 net ~src:0 ~now:0 [ (1, 1); (-1, 1) ] ());
  check_int "nothing queued" 0 (Network.pending net);
  check_int "nothing sent" 0 (Network.sent net)

(* A unicast allocates nothing once the destination's calendar buckets
   have grown: rounds of all-to-all one-copy calls due one tick later,
   received outside the measured window. *)
let test_send_allocates_nothing () =
  let p = 8 and rounds = 200 in
  let net = Network.create ~horizon:4 ~p () in
  let dsts = [| 0 |] and dues = [| 0 |] in
  let words = ref 0.0 in
  for round = 0 to rounds - 1 do
    let w0 = Gc.minor_words () in
    for src = 0 to p - 1 do
      for dst = 0 to p - 1 do
        if src <> dst then begin
          dsts.(0) <- dst;
          dues.(0) <- round + 1;
          Network.multicast net ~src ~now:round ~dsts ~dues ~n:1 ~paid:1 round
        end
      done
    done;
    (* the first lap over the buckets grows them; measure after it *)
    if round > 4 then words := !words +. (Gc.minor_words () -. w0);
    for dst = 0 to p - 1 do
      ignore (Network.receive_iter net ~dst ~now:(round + 1) (fun _ _ -> ()))
    done
  done;
  check_int "every send delivered" 0 (Network.pending net);
  check
    (Printf.sprintf "%.0f words over %d sends" !words
       ((rounds - 5) * p * (p - 1)))
    true (!words = 0.0)

let test_multicast_allocates_nothing () =
  let p = 8 and rounds = 200 in
  let net = Network.create ~horizon:4 ~p () in
  let dsts = Array.make (p - 1) 0 and dues = Array.make (p - 1) 0 in
  let words = ref 0.0 in
  for round = 0 to rounds - 1 do
    let w0 = Gc.minor_words () in
    for src = 0 to p - 1 do
      for dst = 0 to p - 1 do
        if dst <> src then begin
          let k = if dst < src then dst else dst - 1 in
          dsts.(k) <- dst;
          dues.(k) <- round + 1 + ((src + dst) mod 4)
        end
      done;
      Network.multicast net ~src ~now:round ~dsts ~dues ~n:(p - 1)
        ~paid:(p - 1) round
    done;
    (* copies stay queued up to four rounds: measure once every bucket
       has grown to the most it holds *)
    if round >= 20 then words := !words +. (Gc.minor_words () -. w0);
    for dst = 0 to p - 1 do
      ignore (Network.receive_iter net ~dst ~now:(round + 1) (fun _ _ -> ()))
    done
  done;
  for dst = 0 to p - 1 do
    ignore (Network.receive_iter net ~dst ~now:(rounds + 4) (fun _ _ -> ()))
  done;
  check_int "every copy delivered" 0 (Network.pending net);
  check_int "sent counts p - 1 per multicast" (rounds * p * (p - 1))
    (Network.sent net);
  check
    (Printf.sprintf "%.0f words over %d multicasts" !words ((rounds - 20) * p))
    true (!words = 0.0)

let window = "Network.multicast: due outside [now + 1, now + horizon]"
let late = "Msg_ring.add: ring event at or before the cursor"

let test_multicast_errors () =
  let net = Network.create ~horizon:4 ~p:4 () in
  let raises name e f = Alcotest.check_raises name (Invalid_argument e) f in
  raises "src out of range" "Network.multicast src: pid out of range"
    (fun () -> multicast net ~src:4 ~now:0 [ (1, 1) ] "m");
  let outside = "Network.multicast: n outside the buffers" in
  raises "n past a buffer" outside (fun () ->
      Network.multicast net ~src:0 ~now:0 ~dsts:[| 1 |] ~dues:[| 1; 1 |] ~n:2
        ~paid:2 "m");
  raises "negative n" outside (fun () ->
      Network.multicast net ~src:0 ~now:0 ~dsts:[||] ~dues:[||] ~n:(-1)
        ~paid:0 "m");
  raises "negative paid" "Network.multicast: negative paid" (fun () ->
      multicast ~paid:(-1) net ~src:0 ~now:0 [ (1, 1) ] "m");
  raises "negative now" "Network.multicast: negative now" (fun () ->
      multicast net ~src:0 ~now:(-1) [ (1, 1) ] "m");
  raises "due past the horizon" window (fun () ->
      multicast net ~src:0 ~now:2 [ (1, 3); (2, 7) ] "m");
  raises "due at now" window (fun () ->
      multicast net ~src:3 ~now:2 [ (0, 2) ] "n");
  check_int "nothing sent" 0 (Network.sent net);
  check_int "nothing pending" 0 (Network.pending net);
  (* copies queue in index order, whatever their dsts' order, and a dst
     may repeat *)
  multicast net ~src:2 ~now:6 [ (3, 10); (0, 7); (3, 8) ] "k";
  Alcotest.(check (list (pair int string)))
    "dst 3 gets both copies" [ (2, "k"); (2, "k") ]
    (receive net ~dst:3 ~now:10);
  check_int "dst 0's copy still pending" 1 (Network.pending net);
  (* a call of no copies counts what it paid for and queues nothing *)
  multicast ~paid:2 net ~src:1 ~now:6 [] "lost";
  check_int "sent counts the paid messages" 5 (Network.sent net);
  check_int "pending unchanged" 1 (Network.pending net)

let test_message_counting () =
  let net = Network.create ~horizon:2 ~p:4 () in
  (* one multicast from 0: three point-to-point messages *)
  multicast net ~src:0 ~now:0 [ (1, 2); (2, 2); (3, 2) ] "m";
  check_int "sent counts p2p" 3 (Network.sent net);
  check_int "pending" 3 (Network.pending net);
  ignore (receive net ~dst:1 ~now:2);
  check_int "pending after one receive" 2 (Network.pending net);
  check_int "sent unchanged by receive" 3 (Network.sent net)

let test_delayed_processor_receives_backlog () =
  (* A processor that did not step for a while gets everything at once,
     in order. *)
  let net = Network.create ~horizon:3 ~p:2 () in
  send net ~src:0 ~dst:1 ~due:1 "a";
  send net ~src:0 ~dst:1 ~due:3 "b";
  send net ~src:0 ~dst:1 ~due:2 "c";
  Alcotest.(check (list (pair int string))) "backlog in due order"
    [ (0, "a"); (0, "c"); (0, "b") ]
    (receive net ~dst:1 ~now:10)

let test_per_destination_isolation () =
  let net = Network.create ~horizon:1 ~p:3 () in
  send net ~src:0 ~dst:1 ~due:1 "for1";
  send net ~src:0 ~dst:2 ~due:1 "for2";
  Alcotest.(check (list (pair int string))) "only own messages"
    [ (0, "for2") ]
    (receive net ~dst:2 ~now:1)

let test_send_behind_cursor_rejected () =
  (* the ring contract: once [dst] has polled at [now], a send due at or
     before [now] would land in a bucket the cursor already passed *)
  let net = Network.create ~horizon:3 ~p:2 () in
  send net ~src:0 ~dst:1 ~due:2 "on time";
  ignore (receive net ~dst:1 ~now:5);
  (* a sender whose clock lags the receiver's *)
  Alcotest.check_raises "send at the cursor" (Invalid_argument late)
    (fun () -> send ~now:4 net ~src:0 ~dst:1 ~due:5 "late")

let test_send_behind_ringless_cursor_rejected () =
  (* the same contract for a destination that has read only the
     broadcast log, so no ring exists for it yet: its receive at [now:5]
     bounds later sends as a ring's cursor would, before any write *)
  let net = Network.create ~horizon:3 ~p:3 () in
  Network.broadcast net ~src:0 ~due:2 "b";
  check_int "broadcast received" 1
    (Network.receive_iter net ~dst:2 ~now:5 (fun _ _ -> ()));
  let sent = Network.sent net and pending = Network.pending net in
  Alcotest.check_raises "send due before the last receive"
    (Invalid_argument late) (fun () -> send net ~src:0 ~dst:2 ~due:1 "late");
  Alcotest.check_raises "replica due at the last receive"
    (Invalid_argument late) (fun () ->
      multicast ~paid:0 net ~src:1 ~now:2 [ (2, 5) ] "late");
  (* a multicast's later copy to that destination fails the same way,
     and the copy before it is not queued either *)
  Alcotest.check_raises "multicast copy due before the last receive"
    (Invalid_argument late) (fun () ->
      multicast net ~src:0 ~now:0 [ (1, 3); (2, 2) ] "m");
  check_int "sent unchanged" sent (Network.sent net);
  check_int "pending unchanged" pending (Network.pending net);
  send ~now:5 net ~src:1 ~dst:2 ~due:6 "on time";
  Alcotest.(check (list (pair int string)))
    "later sends arrive" [ (1, "on time") ]
    (receive net ~dst:2 ~now:6);
  Alcotest.(check (list (pair int string)))
    "the broadcast only" [ (0, "b") ]
    (receive net ~dst:1 ~now:6)

let test_broadcast_behind_receive_rejected () =
  (* a broadcast due at or before the greatest [now] a receive has seen
     would reach that receiver late: rejected before any write, while
     the dues themselves still do not decrease *)
  let behind = "Network.broadcast: due at or before a receiver's clock" in
  let net = Network.create ~horizon:8 ~p:3 () in
  Network.broadcast net ~src:0 ~due:2 "a";
  check_int "broadcast received" 1
    (Network.receive_iter net ~dst:1 ~now:5 (fun _ _ -> ()));
  let sent = Network.sent net and pending = Network.pending net in
  Alcotest.check_raises "due before the last receive"
    (Invalid_argument behind) (fun () ->
      Network.broadcast net ~src:0 ~due:3 "late");
  Alcotest.check_raises "due at the last receive" (Invalid_argument behind)
    (fun () -> Network.broadcast net ~src:2 ~due:5 "late");
  check_int "sent unchanged" sent (Network.sent net);
  check_int "pending unchanged" pending (Network.pending net);
  check_int "log unchanged" 1 (fst (Network.stream_stats net));
  Network.broadcast net ~src:0 ~due:6 "on time";
  Alcotest.(check (list (pair int string)))
    "dst 1 gets the later broadcast" [ (0, "on time") ]
    (receive net ~dst:1 ~now:6);
  Alcotest.(check (list (pair int string)))
    "dst 2 gets both" [ (0, "a"); (0, "on time") ]
    (receive net ~dst:2 ~now:6)

let test_reliability () =
  (* every message sent is eventually received exactly once; dues run
     from 1, after the senders' clock 0, to 20, hence the horizon *)
  let net = Network.create ~horizon:20 ~p:4 () in
  let sent = ref [] in
  let rng = Rng.create 77 in
  for i = 0 to 99 do
    let src = Rng.int rng 4 in
    let dst = (src + 1 + Rng.int rng 3) mod 4 in
    let due = 1 + Rng.int rng 20 in
    send net ~src ~dst ~due i;
    sent := (dst, i) :: !sent
  done;
  let received = ref [] in
  for dst = 0 to 3 do
    List.iter
      (fun (_, payload) -> received := (dst, payload) :: !received)
      (receive net ~dst ~now:100)
  done;
  check_int "no losses" 100 (List.length !received);
  let norm l = List.sort compare l in
  check "exactly the sent messages" true (norm !sent = norm !received);
  check_int "nothing pending" 0 (Network.pending net)

let test_receive_iter_matches_receive () =
  let mk () =
    let net = Network.create ~horizon:4 ~p:3 () in
    send net ~src:0 ~dst:1 ~due:1 "a";
    send net ~src:2 ~dst:1 ~due:3 "b";
    send net ~src:0 ~dst:1 ~due:1 "c";
    net
  in
  let by_iter = ref [] in
  let n =
    Network.receive_iter (mk ()) ~dst:1 ~now:3 (fun src msg ->
        by_iter := (src, msg) :: !by_iter)
  in
  check_int "returned count = deliveries" 3 n;
  Alcotest.(check (list (pair int string)))
    "by due, then send order" [ (0, "a"); (0, "c"); (2, "b") ]
    (List.rev !by_iter)

let test_bounded_horizon_network () =
  (* engine-shaped traffic through a ring-backed network *)
  let net = Network.create ~horizon:3 ~p:2 () in
  let received = ref [] in
  for now = 0 to 30 do
    ignore
      (Network.receive_iter net ~dst:1 ~now (fun _src msg ->
           received := msg :: !received));
    if now < 20 then
      send ~now net ~src:0 ~dst:1 ~due:(now + 1 + (now mod 3)) now
  done;
  check_int "all delivered" 20 (List.length !received);
  check_int "nothing pending" 0 (Network.pending net);
  (* deliveries ordered by (due, send order): payload k is due at
     k + 1 + (k mod 3), so received order is sorted by that key *)
  let key k = ((k + 1 + (k mod 3)) * 100) + k in
  let got = List.rev !received in
  let sorted = List.sort (fun a b -> compare (key a) (key b)) got in
  check "due order respected" true (got = sorted)

let test_broadcast_basic () =
  (* One shared record, p-1 logical messages: everyone but the source
     receives exactly one copy, and M/pending advance by p-1. *)
  let net = Network.create ~horizon:8 ~p:4 () in
  Network.broadcast net ~src:1 ~due:3 "news";
  check_int "sent = p-1" 3 (Network.sent net);
  check_int "pending = p-1" 3 (Network.pending net);
  Alcotest.(check (list (pair int string)))
    "source gets nothing" []
    (receive net ~dst:1 ~now:10);
  List.iter
    (fun dst ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "dst %d" dst)
        [ (1, "news") ]
        (receive net ~dst ~now:10))
    [ 0; 2; 3 ];
  check_int "drained" 0 (Network.pending net)

let test_broadcast_merge_order () =
  (* Shared-stream deliveries interleave with per-destination unicasts
     exactly as if the broadcast had been p-1 individual sends: global
     (due, send order). *)
  let net = Network.create ~horizon:8 ~p:3 () and rf = Ref_net.create ~p:3 in
  send net ~src:2 ~dst:1 ~due:2 "u-first";
  Ref_net.send rf ~src:2 ~dst:1 ~due:2 "u-first";
  Network.broadcast net ~src:0 ~due:2 "b1";
  Ref_net.broadcast rf ~src:0 ~due:2 "b1";
  send net ~src:2 ~dst:1 ~due:2 "u-mid";
  Ref_net.send rf ~src:2 ~dst:1 ~due:2 "u-mid";
  Network.broadcast net ~src:2 ~due:4 "b2";
  Ref_net.broadcast rf ~src:2 ~due:4 "b2";
  send net ~src:0 ~dst:1 ~due:3 "u-late";
  Ref_net.send rf ~src:0 ~dst:1 ~due:3 "u-late";
  let spec = Ref_net.receive rf ~dst:1 ~now:10 in
  Alcotest.(check (list (pair int string)))
    "reference order is the spec"
    [ (2, "u-first"); (0, "b1"); (2, "u-mid"); (0, "u-late"); (2, "b2") ]
    spec;
  Alcotest.(check (list (pair int string))) "ring = reference" spec
    (receive net ~dst:1 ~now:10)

let test_broadcast_stream_growth () =
  (* Keep more undelivered broadcasts in flight than the stream's
     initial capacity, with a lagging reader: exercises the circular
     grow + head reclaim while cursors straddle the buffer. *)
  let net = Network.create ~horizon:512 ~p:3 () in
  let fast = ref [] and slow = ref [] in
  for now = 0 to 999 do
    if now < 500 then begin
      (* constant latency (the stream's contract) with ~400 records in
         flight: well past the initial 64-slot capacity *)
      Network.broadcast net ~src:0 ~due:(now + 400) now;
      Network.broadcast net ~src:1 ~due:(now + 400) (1000 + now)
    end;
    (* dst 2 reads every step, dst 1 only rarely *)
    ignore
      (Network.receive_iter net ~dst:2 ~now (fun _ msg ->
           fast := msg :: !fast));
    if now mod 97 = 0 then
      ignore
        (Network.receive_iter net ~dst:1 ~now (fun _ msg ->
             slow := msg :: !slow))
  done;
  ignore (receive net ~dst:0 ~now:2000);
  ignore (receive net ~dst:1 ~now:2000);
  ignore (receive net ~dst:2 ~now:2000);
  check_int "dst 2 saw every broadcast" 1000 (List.length !fast);
  check_int "nothing pending" 0 (Network.pending net);
  (* pairwise FIFO within each source's stream *)
  let fifo src_tag msgs =
    let own = List.filter (fun m -> m / 1000 = src_tag) (List.rev msgs) in
    let rec increasing = function
      | a :: (b :: _ as rest) -> a < b && increasing rest
      | _ -> true
    in
    increasing own
  in
  check "src 0 FIFO at fast reader" true (fifo 0 !fast);
  check "src 1 FIFO at fast reader" true (fifo 1 !fast)

let test_broadcast_deactivate () =
  let net = Network.create ~horizon:4 ~p:3 () in
  Network.broadcast net ~src:0 ~due:2 "a";
  Network.deactivate net ~pid:2;
  Network.broadcast net ~src:0 ~due:3 "b";
  (* the live destination still gets both *)
  Alcotest.(check (list (pair int string)))
    "live dst" [ (0, "a"); (0, "b") ]
    (receive net ~dst:1 ~now:10);
  (* messages owed to the dead pid rot in pending, like an unread
     per-destination queue *)
  check_int "dead pid's copies still pending" 2 (Network.pending net);
  check_int "sent unaffected" 4 (Network.sent net);
  Network.deactivate net ~pid:2 (* idempotent *);
  check_int "still pending after re-deactivate" 2 (Network.pending net)

let test_broadcast_ring_matches_ref_random () =
  (* Randomized mixed traffic: rings merged with the shared stream must
     deliver exactly the reference's sequences at every destination. The
     stream requires non-decreasing broadcast dues (constant-latency
     traffic), so broadcasts use a fixed delta while unicasts roam. *)
  let p = 5 in
  let delta = 6 in
  let rf = Ref_net.create ~p in
  let ring = Network.create ~horizon:8 ~p () in
  let rng = Rng.create 4242 in
  let mismatch = ref false in
  for now = 0 to 199 do
    let burst = Rng.int rng 3 in
    for _ = 1 to burst do
      let src = Rng.int rng p in
      if Rng.int rng 3 = 0 then begin
        Ref_net.broadcast rf ~src ~due:(now + delta) now;
        Network.broadcast ring ~src ~due:(now + delta) now
      end
      else begin
        let dst = (src + 1 + Rng.int rng (p - 1)) mod p in
        let due = now + 1 + Rng.int rng 8 in
        Ref_net.send rf ~src ~dst ~due now;
        send ~now ring ~src ~dst ~due now
      end
    done;
    for dst = 0 to p - 1 do
      if Ref_net.receive rf ~dst ~now <> receive ring ~dst ~now
      then mismatch := true
    done
  done;
  for dst = 0 to p - 1 do
    if Ref_net.receive rf ~dst ~now:300 <> receive ring ~dst ~now:300
    then mismatch := true
  done;
  check "ring = reference on mixed random traffic" false !mismatch;
  check_int "same sent" (Ref_net.sent rf) (Network.sent ring);
  check_int "same pending" (Ref_net.pending rf) (Network.pending ring)

(* Broadcast traffic checked against the reference: [poll] compares one
   receive's records (in arrival order, Ref_net.arrive) and delivery
   count, [final] drains every live receiver and compares the orders,
   [pending] and [sent]. With a digest a callback may carry records the
   receiver already holds; a per-record callback may not. *)
let stream_pair ~digest ~horizon ~p =
  let net =
    if digest then Network.create ~digest:Ref_net.union ~horizon ~p ()
    else Network.create ~horizon ~p ()
  in
  let rf = Ref_net.create ~p in
  let got = Array.init p (fun dst -> Ref_net.arrivals ~dst)
  and want = Array.init p (fun dst -> Ref_net.arrivals ~dst) in
  let ok = ref true and id = ref 0 in
  let broadcast ~src ~due =
    incr id;
    let msg = [ (src, !id) ] in
    Network.broadcast net ~src ~due msg;
    Ref_net.broadcast rf ~src ~due msg
  in
  let poll dst now =
    let calls = ref 0 in
    let n =
      Network.receive_iter net ~dst ~now (fun src msg ->
          incr calls;
          ok := !ok && Ref_net.arrive got.(dst) ~src msg)
    in
    let n' =
      Ref_net.receive_iter rf ~dst ~now (fun src msg ->
          ignore (Ref_net.arrive want.(dst) ~src msg : bool))
    in
    ok := !ok && n = n' && Network.pending net = Ref_net.pending rf;
    !calls
  in
  let final live now =
    List.iter (fun dst -> ignore (poll dst now : int)) live;
    !ok
    && List.for_all (fun dst -> got.(dst).Ref_net.order = want.(dst).order) live
    && Network.pending net = Ref_net.pending rf
    && Network.sent net = Ref_net.sent rf
  in
  (net, broadcast, poll, final)

(* A deactivated pid can keep broadcasting: a Channel station still
   transmits the frames it queued before it crashed. Its entries must
   not disturb the live receivers' passing of their own entries, also
   after the log has grown (a lagging receiver holds 100 entries) and
   the slot of its previous entry is reused. Here entry 0 is pid 2's,
   the log grows to 128 slots, and entries 128, 129 and 131 are pid 1's
   in the epoch that pid 2's next entry, 132, closes: linking 132 from
   entry 0's slot, now entry 128's, would make pid 1's chain apply skip
   its own entry 131. *)
let test_deactivated_source_keeps_broadcasting () =
  List.iter
    (fun digest ->
      let net, broadcast, poll, final = stream_pair ~digest ~horizon:1 ~p:3 in
      let poll dst now = ignore (poll dst now : int) in
      Network.deactivate net ~pid:2;
      broadcast ~src:2 ~due:1;
      let peak = ref 0 in
      for now = 1 to 127 do
        poll 0 now;
        (* pid 1 lags until now 100, then reads every step *)
        if now >= 100 then poll 1 now;
        peak := max !peak (fst (Network.stream_stats net));
        broadcast ~src:0 ~due:(now + 1)
      done;
      poll 0 128;
      poll 1 128;
      List.iter (fun src -> broadcast ~src ~due:129) [ 1; 1; 0; 1; 2 ];
      check "the log grew past its first 64 slots" true (!peak > 64);
      check
        (Printf.sprintf "live receivers = reference (digest %b)" digest)
        true (final [ 0; 1 ] 129);
      check_int "log drained" 0 (fst (Network.stream_stats net)))
    [ false; true ]

(* With a digest, a receiver that skipped several epochs in which it
   broadcast itself gets them as one chain callback; its count leaves
   out its own entries, under the chain and past it alike. *)
let test_chain_skips_own_entries () =
  let delta = 2 in
  let _, broadcast, poll, final =
    stream_pair ~digest:true ~horizon:delta ~p:4
  in
  let calls = ref [] in
  for now = 0 to 9 do
    List.iter
      (fun dst ->
        if dst <> 1 || now = 3 || now = 9 then
          let c = poll dst now in
          if dst = 1 then calls := c :: !calls)
      [ 0; 1; 2; 3 ];
    (* pid 1 broadcasts at even steps only *)
    List.iter
      (fun src ->
        if src <> 1 || now mod 2 = 0 then broadcast ~src ~due:(now + delta))
      [ 0; 1; 2; 3 ]
  done;
  Alcotest.(check (list int))
    "pid 1: one chain callback at now 3 and at now 9" [ 1; 1 ]
    (List.rev !calls);
  check "counts, pending and records = reference" true
    (final [ 0; 1; 2; 3 ] (10 + delta))

(* A receiver whose clock lags the chain's last due takes entries one
   at a time and passes its own entries among them; a later chain apply
   must count only the own entries past its cursor. *)
let test_lagging_clock_then_chain () =
  let _, broadcast, poll, final = stream_pair ~digest:true ~horizon:1 ~p:3 in
  for now = 0 to 3 do
    List.iter (fun src -> broadcast ~src ~due:(now + 1)) [ 0; 1; 2 ]
  done;
  check_int "pid 0 folds the four epochs, one callback each" 4 (poll 0 4);
  check_int "pid 1 at now 2: one callback per other entry" 4 (poll 1 2);
  check_int "pid 1 at now 4: the chain" 1 (poll 1 4);
  check "counts, pending and records = reference" true (final [ 0; 1; 2 ] 5)

(* The log's release rule, seen from outside: while some pid is active,
   the log retains exactly the broadcasts due after the earliest last
   poll among the active pids ([polled_at], -1 before a pid's first
   poll), since a poll passes every entry due by its [now] and the log
   drops an entry once no active cursor is at or below it. This pins
   when entries are released, and so when the digest chain is reset. *)
let log_retained_ok net ~inactive ~polled_at bdues =
  let floor = ref max_int in
  Array.iteri
    (fun pid at -> if not inactive.(pid) then floor := min !floor at)
    polled_at;
  !floor = max_int
  || fst (Network.stream_stats net)
     = List.length (List.filter (fun due -> due > !floor) bdues)

(* The determinism keystone: on engine-shaped traffic — unicasts due in
   (now, now + h], broadcasts at one constant latency, readers polling
   at arbitrary instants — the network delivers exactly the reference's
   per-destination sequences, with or without a digest fold, while pids
   are deactivated (and never polled again) along the way. Payloads
   are record sets and a digest is their union (Ref_net.union), so a
   chained digest may repeat records; each receiver's records must
   arrive in the reference's order (Ref_net.arrive), a per-record
   delivery must bring only new records, and no digest may carry a
   record not yet due to its receiver. *)
let prop_network_matches_ref =
  let p = 5 in
  QCheck2.Test.make ~name:"network = Ref_net (rings, stream, digest)"
    ~count:300
    QCheck2.Gen.(
      let* horizon = int_range 1 9 in
      let* delta = int_range 1 horizon in
      let* digest = bool in
      (* (kind: 0 = broadcast, src, dst offset, unicast latency) *)
      let send =
        quad (int_range 0 2) (int_range 0 (p - 1)) (int_range 1 (p - 1))
          (int_range 1 horizon)
      in
      (* (advance, sends, polled mask, pid deactivated after the polls
         or -1) *)
      let* ops =
        list_size (int_range 1 60)
          (quad (int_range 0 3) (list_size (int_range 0 4) send)
             (int_range 0 ((1 lsl p) - 1))
             (frequencyl [ (12, -1); (1, 0); (1, 1); (1, 2); (1, 3); (1, 4) ]))
      in
      return (horizon, delta, digest, ops))
    (fun (horizon, delta, digest, ops) ->
      let net =
        if digest then Network.create ~digest:Ref_net.union ~horizon ~p ()
        else Network.create ~horizon ~p ()
      in
      let rf = Ref_net.create ~p in
      let got = Array.init p (fun dst -> Ref_net.arrivals ~dst)
      and want = Array.init p (fun dst -> Ref_net.arrivals ~dst) in
      let due_of = Hashtbl.create 64 in
      let n_got = ref 0 and n_want = ref 0 and ok = ref true in
      let inactive = Array.make p false and polled_at = Array.make p (-1) in
      let bdues = ref [] (* every broadcast's due, newest first *) in
      let poll dst now =
        polled_at.(dst) <- now;
        n_got :=
          !n_got
          + Network.receive_iter net ~dst ~now (fun src msg ->
                ok :=
                  !ok
                  && Ref_net.arrive got.(dst) ~src msg
                  && List.for_all
                       (fun (_, id) -> Hashtbl.find due_of id <= now)
                       msg);
        n_want :=
          !n_want
          + Ref_net.receive_iter rf ~dst ~now (fun src msg ->
                ok := !ok && Ref_net.arrive want.(dst) ~src msg)
      in
      let now = ref 0 and id = ref 0 in
      List.iter
        (fun (advance, sends, polled, deact) ->
          for dst = 0 to p - 1 do
            if polled land (1 lsl dst) <> 0 && not inactive.(dst) then
              poll dst !now
          done;
          if deact >= 0 then begin
            Network.deactivate net ~pid:deact;
            inactive.(deact) <- true
          end;
          List.iter
            (fun (kind, src, off, lat) ->
              incr id;
              let msg = [ (src, !id) ] in
              if kind = 0 then begin
                Hashtbl.replace due_of !id (!now + delta);
                bdues := (!now + delta) :: !bdues;
                Network.broadcast net ~src ~due:(!now + delta) msg;
                Ref_net.broadcast rf ~src ~due:(!now + delta) msg
              end
              else begin
                let dst = (src + off) mod p in
                Hashtbl.replace due_of !id (!now + lat);
                send ~now:!now net ~src ~dst ~due:(!now + lat) msg;
                Ref_net.send rf ~src ~dst ~due:(!now + lat) msg
              end)
            sends;
          ok := !ok && log_retained_ok net ~inactive ~polled_at !bdues;
          now := !now + advance)
        ops;
      let same_counts () =
        Network.sent net = Ref_net.sent rf
        && Network.pending net = Ref_net.pending rf
        && !n_got = !n_want
      in
      let mid = same_counts () in
      for dst = 0 to p - 1 do
        if not inactive.(dst) then poll dst (!now + horizon + 1)
      done;
      (* copies owed to a deactivated pid stay pending on both sides *)
      !ok && mid && same_counts ()
      && log_retained_ok net ~inactive ~polled_at !bdues
      && Array.for_all2
           (fun g w -> g.Ref_net.order = w.Ref_net.order)
           got want
      && (Array.exists Fun.id inactive || Network.pending net = 0))

(* The payload table keeps a payload only while a copy of it is queued.
   The first payload a network sees fills released slots for the
   network's lifetime, so each test sends a throwaway one first. *)
let fresh_payload () = Bytes.make 64 (Char.chr (Random.int 256))

let[@inline never] sent_payload send =
  let w = Weak.create 1 in
  let m = fresh_payload () in
  Weak.set w 0 (Some m);
  send m;
  w

let[@inline never] receive_none net ~dst ~now =
  ignore (Network.receive_iter net ~dst ~now (fun _ _ -> ()))

let alive w =
  Gc.full_major ();
  Weak.check w 0

(* The copies of one call share a record: the payload lives until the
   last of them is received. *)
let test_payload_released_with_last_copy () =
  let net = Network.create ~horizon:4 ~p:4 () in
  send net ~src:0 ~dst:1 ~due:1 (fresh_payload ());
  receive_none net ~dst:1 ~now:1;
  let w =
    sent_payload (fun m ->
        multicast net ~src:0 ~now:1 [ (1, 2); (2, 2); (3, 2) ] m)
  in
  receive_none net ~dst:1 ~now:2;
  receive_none net ~dst:2 ~now:2;
  check "alive while a copy is queued" true (alive w);
  receive_none net ~dst:3 ~now:2;
  check "collected after the last copy" false (alive w);
  check_int "nothing pending" 0 (Network.pending net)

(* Every copy of a multicast is checked before the record is taken: a
   call whose last copy is bad raises and leaves [sent], [pending] and
   the payload table as they were, the copies before it unqueued. *)
let test_rejected_multicast_leaves_no_trace () =
  let net = Network.create ~horizon:4 ~p:4 () in
  send net ~src:0 ~dst:1 ~due:1 (fresh_payload ());
  receive_none net ~dst:1 ~now:3;
  let sent = Network.sent net and pending = Network.pending net in
  List.iter
    (fun (name, e, now, bad) ->
      let w =
        sent_payload (fun m ->
            Alcotest.check_raises name (Invalid_argument e) (fun () ->
                multicast net ~src:0 ~now
                  [ (2, now + 1); (3, now + 2); bad ]
                  m))
      in
      check (name ^ ": payload not held") false (alive w);
      check_int (name ^ ": sent unchanged") sent (Network.sent net);
      check_int (name ^ ": pending unchanged") pending (Network.pending net))
    [
      ("due outside the window", window, 3, (1, 8));
      (* dst 1 has received at 3, ahead of this sender's clock *)
      ("due at the cursor", late, 2, (1, 3));
      ("self-send", "Network.multicast: self-send", 3, (0, 4));
      ( "dst out of range",
        "Network.multicast dst: pid out of range",
        3,
        (4, 4) );
    ];
  List.iter
    (fun dst ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "nothing for dst %d" dst)
        []
        (List.map
           (fun (s, m) -> (s, Bytes.to_string m))
           (receive net ~dst ~now:9)))
    [ 0; 1; 2; 3 ]

(* A broadcast's payload is held once for every receiver, so it lives
   while any cursor still owes it, the sender's included: it goes with
   the last receiver to pass it, or with the lagging pid's deactivation. *)
let test_broadcast_payload_released () =
  let lagging_broadcast () =
    let net = Network.create ~horizon:4 ~p:4 () in
    Network.broadcast net ~src:0 ~due:1 (fresh_payload ());
    List.iter (fun dst -> receive_none net ~dst ~now:1) [ 0; 1; 2; 3 ];
    let w = sent_payload (fun m -> Network.broadcast net ~src:0 ~due:2 m) in
    List.iter (fun dst -> receive_none net ~dst ~now:2) [ 0; 1; 2 ];
    (net, w)
  in
  let net, w = lagging_broadcast () in
  check "alive while a cursor lags" true (alive w);
  receive_none net ~dst:3 ~now:2;
  check "collected once the lagging cursor drains it" false (alive w);
  check_int "nothing pending" 0 (Network.pending net);
  let net, w = lagging_broadcast () in
  check "alive before deactivation" true (alive w);
  Network.deactivate net ~pid:3;
  check "collected once the lagging pid is deactivated" false (alive w);
  check_int "the deactivated pid's copy still pending" 1 (Network.pending net)

(* A payload sent with replicas lives until its last replica is
   received, the replicas of one copy and the other copies alike. *)
let test_replica_payload_released () =
  let net = Network.create ~horizon:4 ~p:3 () in
  send net ~src:0 ~dst:1 ~due:1 (fresh_payload ());
  receive_none net ~dst:1 ~now:1;
  let w =
    sent_payload (fun m ->
        multicast ~paid:2 net ~src:0 ~now:1
          [ (1, 2); (1, 5); (2, 3); (1, 4) ]
          m)
  in
  receive_none net ~dst:1 ~now:2;
  receive_none net ~dst:2 ~now:3;
  check "alive while replicas are queued" true (alive w);
  receive_none net ~dst:1 ~now:4;
  check "alive while the last replica is queued" true (alive w);
  receive_none net ~dst:1 ~now:5;
  check "collected after the last replica" false (alive w);
  check_int "sent counts the paid messages only" 3 (Network.sent net)

(* Differential test of the payload table: calls that often reuse a
   payload across calls and sources, mixed with constant-offset
   broadcasts and polls at a non-decreasing clock. Every poll must
   return the reference's (src, msg) sequence. [Ref_net] knows neither
   drops nor replicas: each queued copy is one reference send, and
   [extra] tracks the copies the reference counted beyond what the calls
   paid for. A deactivated pid is never polled again; the reference
   keeps its copies queued, as the network counts them in [pending],
   and the broadcast records it no longer holds are released and their
   ids reused. *)
type op =
  | Advance of int
  | Poll of int (* dst *)
  | Deactivate of int (* pid *)
  | Broadcast of int (* src *)
  | Send of { src : int; off : int; lat : int; reuse : int; drop : bool }
  | Replica of { src : int; off : int; lats : int list; reuse : int }
  | Multicast of { src : int; lats : int array; fates : int array; reuse : int }
  | Late of { src : int; off : int; reuse : int; replica : bool }
  | Late_broadcast of int (* src *)
  | Far of { src : int; lats : int array; bad : int; how : int; reuse : int }
  | Bad_pid of { src : int; dst : int; reuse : int; kind : int }
(* [reuse]: 0 = fresh payload, 1 = the last one sent, 2 = an older one.
   A [Send] is one copy and one message paid, or no copy when dropped. A
   [Replica] is one paid message with 2 or 3 copies to one dst. A
   [Multicast] pays p - 1 messages, one per other dst in ascending
   order, whose [fates.(dst)] is 0 (dropped, no copy), 1 (one copy at
   [now + lats.(dst)]) or 2 (that copy and a replica at
   [now + horizon + 1 - lats.(dst)]). The last four are rejected calls,
   which must leave no trace: a [Late] call comes from a sender whose
   clock is one behind the destination's delivery cursor, its last
   poll's [now] (also before any copy has made its ring, when the poll
   read only broadcasts), and its copy is due at that cursor, after a
   valid replica when [replica]; a [Late_broadcast] is due at the
   greatest [now] any poll has seen; a [Far] multicast's copy to [bad]
   is made bad ([how]: 0 = due past the horizon, 1 = due at [now],
   2 = sent to [src] itself, 3 = sent to pid p), so none of its copies
   is queued; a [Bad_pid] call names a pid out of range, or sends to
   itself ([kind]: 0 = a unicast, 1 = a replica only, 2 = a multicast
   from [src] to every pid). *)

let show_op =
  let ints l = String.concat "," (List.map string_of_int l) in
  let arr a = ints (Array.to_list a) in
  function
  | Advance k -> Printf.sprintf "advance %d" k
  | Poll d -> Printf.sprintf "poll %d" d
  | Deactivate d -> Printf.sprintf "deactivate %d" d
  | Broadcast s -> Printf.sprintf "broadcast %d" s
  | Send { src; off; lat; reuse; drop } ->
    Printf.sprintf "send %d+%d lat %d reuse %d%s" src off lat reuse
      (if drop then " dropped" else "")
  | Replica { src; off; lats; reuse } ->
    Printf.sprintf "replica %d+%d lats [%s] reuse %d" src off (ints lats) reuse
  | Multicast { src; lats; fates; reuse } ->
    Printf.sprintf "multicast %d [%s] fates [%s] reuse %d" src (arr lats)
      (arr fates) reuse
  | Late { src; off; reuse; replica } ->
    Printf.sprintf "late %d+%d reuse %d%s" src off reuse
      (if replica then " replica" else "")
  | Late_broadcast s -> Printf.sprintf "late broadcast %d" s
  | Far { src; lats; bad; how; reuse } ->
    Printf.sprintf "far %d [%s] bad %d how %d reuse %d" src (arr lats) bad how
      reuse
  | Bad_pid { src; dst; reuse; kind } ->
    Printf.sprintf "bad-pid %d -> %d reuse %d kind %d" src dst reuse kind

let prop_payload_reuse_matches_ref =
  let horizon = 8 in
  QCheck2.Test.make ~name:"network = Ref_net under payload reuse" ~count:300
    ~print:(fun (p, delta, ops) ->
      Printf.sprintf "p=%d delta=%d: %s" p delta
        (String.concat "; " (List.map show_op ops)))
    QCheck2.Gen.(
      let* p = int_range 2 5 in
      let* delta = int_range 1 horizon in
      let reuse = frequencyl [ (2, 0); (2, 1); (1, 2) ] in
      let op =
        frequency
          [
            (2, map (fun k -> Advance k) (int_range 0 3));
            (2, map (fun d -> Poll d) (int_range 0 (p - 1)));
            (1, map (fun s -> Broadcast s) (int_range 0 (p - 1)));
            (1, map (fun d -> Deactivate d) (int_range 0 (p - 1)));
            ( 4,
              let* src = int_range 0 (p - 1) in
              let* off = int_range 1 (p - 1) in
              let* lat = int_range 1 horizon in
              let* reuse = frequencyl [ (1, 0); (3, 1); (1, 2) ] in
              let* drop = frequencyl [ (5, false); (1, true) ] in
              return (Send { src; off; lat; reuse; drop }) );
            ( 2,
              let* src = int_range 0 (p - 1) in
              let* off = int_range 1 (p - 1) in
              let* lats = list_size (int_range 2 3) (int_range 1 horizon) in
              let* reuse = frequencyl [ (1, 0); (3, 1); (1, 2) ] in
              return (Replica { src; off; lats; reuse }) );
            ( 2,
              let* src = int_range 0 (p - 1) in
              let* lats = array_size (return p) (int_range 1 horizon) in
              let* fates =
                array_size (return p) (frequencyl [ (1, 0); (4, 1); (1, 2) ])
              in
              let* reuse in
              return (Multicast { src; lats; fates; reuse }) );
            ( 1,
              let* src = int_range 0 (p - 1) in
              let* off = int_range 1 (p - 1) in
              let* reuse in
              let* replica = bool in
              return (Late { src; off; reuse; replica }) );
            (1, map (fun s -> Late_broadcast s) (int_range 0 (p - 1)));
            ( 1,
              let* src = int_range 0 (p - 1) in
              let* lats = array_size (return p) (int_range 1 horizon) in
              let* bad = int_range 0 (p - 1) in
              let* how = int_range 0 3 in
              let* reuse in
              return (Far { src; lats; bad; how; reuse }) );
            ( 1,
              let* src = int_range (-1) p in
              let* dst = int_range (-1) p in
              let* reuse in
              let* kind = int_range 0 2 in
              return (Bad_pid { src; dst; reuse; kind }) );
          ]
      in
      let* ops = list_size (int_range 1 120) op in
      return (p, delta, ops))
    (fun (p, delta, ops) ->
      let net = Network.create ~horizon ~p () and rf = Ref_net.create ~p in
      let now = ref 0 and next = ref 0 and extra = ref 0 in
      let inactive = Array.make p false in
      (* each destination's delivery cursor, moved to [now] by each
         poll, whether or not its first queued copy has made its ring *)
      let cursor = Array.make p (-1) in
      let bdues = ref [] (* every broadcast's due, newest first *) in
      let rejected f =
        match f () with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      let recent = ref [] (* payloads sent, newest first *) in
      let fresh () =
        incr next;
        let m = ref !next in
        recent := m :: !recent;
        m
      in
      let payload reuse =
        match (reuse, !recent) with
        | 1, m :: _ -> m
        | 2, _ :: older when older <> [] ->
          List.nth older (!next mod List.length older)
        | _ -> fresh ()
      in
      (* one accepted call, and its copies as reference sends *)
      let call ~src ~paid copies m =
        multicast ~paid net ~src ~now:!now copies m;
        List.iter (fun (dst, due) -> Ref_net.send rf ~src ~dst ~due m) copies;
        extra := !extra + List.length copies - paid
      in
      let poll dst =
        let got = ref [] and want = ref [] in
        let n =
          Network.receive_iter net ~dst ~now:!now (fun src m ->
              got := (src, !m) :: !got)
        in
        let n' =
          Ref_net.receive_iter rf ~dst ~now:!now (fun src m ->
              want := (src, !m) :: !want)
        in
        n = n' && !got = !want
      in
      let same_counts () =
        Network.sent net + !extra = Ref_net.sent rf
        && Network.pending net = Ref_net.pending rf
      in
      (* every other dst in ascending order *)
      let others src f =
        List.concat_map
          (fun dst -> if dst = src then [] else f dst)
          (List.init p Fun.id)
      in
      let ok = ref true and filler = ref None in
      List.iter
        (fun op ->
          (match op with
           | Advance k -> now := !now + k
           | Poll dst ->
             if not inactive.(dst) then begin
               ok := !ok && poll dst;
               cursor.(dst) <- !now
             end
           | Deactivate pid ->
             Network.deactivate net ~pid;
             inactive.(pid) <- true
           | Broadcast src ->
             let m = fresh () in
             Network.broadcast net ~src ~due:(!now + delta) m;
             Ref_net.broadcast rf ~src ~due:(!now + delta) m;
             bdues := (!now + delta) :: !bdues
           | Send { src; off; lat; reuse; drop } ->
             let dst = (src + off) mod p in
             call ~src ~paid:1
               (if drop then [] else [ (dst, !now + lat) ])
               (payload reuse)
           | Replica { src; off; lats; reuse } ->
             let dst = (src + off) mod p in
             call ~src ~paid:1
               (List.map (fun lat -> (dst, !now + lat)) lats)
               (payload reuse)
           | Multicast { src; lats; fates; reuse } ->
             let copies =
               others src (fun dst ->
                   let due = !now + lats.(dst) in
                   match fates.(dst) with
                   | 0 -> []
                   | 1 -> [ (dst, due) ]
                   | _ ->
                     [ (dst, due); (dst, !now + horizon + 1 - lats.(dst)) ])
             in
             call ~src ~paid:(p - 1) copies (payload reuse)
           | Late { src; off; reuse; replica } ->
             let dst = (src + off) mod p and m = payload reuse in
             let c = cursor.(dst) in
             if c >= 1 then
               let copies =
                 (if replica then [ (dst, c + 1) ] else []) @ [ (dst, c) ]
               in
               ok :=
                 !ok
                 && rejected (fun () ->
                        multicast ~paid:1 net ~src ~now:(c - 1) copies m)
           | Late_broadcast src ->
             let clock = Array.fold_left max (-1) cursor in
             if clock >= 0 then
               let m = fresh () in
               ok :=
                 !ok
                 && rejected (fun () ->
                        Network.broadcast net ~src ~due:clock m)
           | Far { src; lats; bad; how; reuse } ->
             let m = payload reuse in
             let copies =
               others src (fun dst ->
                   let due = !now + lats.(dst) in
                   if dst <> bad then [ (dst, due) ]
                   else
                     match how with
                     | 0 -> [ (dst, !now + horizon + 1) ]
                     | 1 -> [ (dst, !now) ]
                     | 2 -> [ (src, due) ]
                     | _ -> [ (p, due) ])
             in
             ok :=
               !ok
               && (bad = src
                  || rejected (fun () -> multicast net ~src ~now:!now copies m))
           | Bad_pid { src; dst; reuse; kind } ->
             let in_range x = x >= 0 && x < p in
             if not (in_range src && in_range dst && src <> dst) then begin
               let m = payload reuse in
               let due = !now + 1 in
               ok :=
                 !ok
                 && rejected (fun () ->
                        match kind with
                        | 0 -> multicast net ~src ~now:!now [ (dst, due) ] m
                        | 1 ->
                          multicast ~paid:0 net ~src ~now:!now [ (dst, due) ] m
                        | _ ->
                          if in_range src then raise (Invalid_argument "")
                          else
                            multicast net ~src ~now:!now
                              (List.init p (fun dst -> (dst, due)))
                              m)
             end);
          (* the first payload the network took: its first record's *)
          if !filler = None then
            List.iter
              (fun (_, seq, _, _, m) -> if seq = 0 then filler := Some m)
              rf.Ref_net.queued;
          ok :=
            !ok && same_counts ()
            && log_retained_ok net ~inactive ~polled_at:cursor !bdues)
        ops;
      now := !now + horizon + 1;
      for dst = 0 to p - 1 do
        if not inactive.(dst) then ok := !ok && poll dst
      done;
      (* record release: once its last queued copy is gone, no payload
         stays reachable from the network — only the reference still
         holding a copy (one owed to a deactivated pid) keeps it alive.
         The first payload the network took is exempt: it fills released
         slots. A rejected call's payload must be gone too. *)
      let weak = Weak.create (!next + 1) in
      List.iter (fun m -> Weak.set weak !m (Some m)) !recent;
      recent := [];
      let filler = match !filler with Some m -> !m | None -> 0 in
      Gc.full_major ();
      for k = 1 to !next do
        match Weak.get weak k with
        | Some m when k <> filler ->
          ok :=
            !ok
            && List.exists (fun (_, _, _, _, m') -> m' == m) rf.Ref_net.queued
        | _ -> ()
      done;
      !ok && same_counts ())

let suite =
  [
    Alcotest.test_case "send/receive with due time" `Quick test_send_receive;
    Alcotest.test_case "receive_iter = receive" `Quick
      test_receive_iter_matches_receive;
    Alcotest.test_case "bounded-horizon (ring) network" `Quick
      test_bounded_horizon_network;
    Alcotest.test_case "self-send rejected" `Quick test_no_self_send;
    Alcotest.test_case "pid range checked" `Quick test_pid_range;
    Alcotest.test_case "src range checked" `Quick test_send_src_range;
    Alcotest.test_case "replica copy errors" `Quick test_replica_errors;
    Alcotest.test_case "send allocates nothing" `Quick
      test_send_allocates_nothing;
    Alcotest.test_case "multicast allocates nothing" `Quick
      test_multicast_allocates_nothing;
    Alcotest.test_case "multicast errors" `Quick test_multicast_errors;
    Alcotest.test_case "rejected multicast leaves no trace" `Quick
      test_rejected_multicast_leaves_no_trace;
    Alcotest.test_case "message counting" `Quick test_message_counting;
    Alcotest.test_case "backlog delivered in order" `Quick
      test_delayed_processor_receives_backlog;
    Alcotest.test_case "per-destination isolation" `Quick
      test_per_destination_isolation;
    Alcotest.test_case "send behind the delivery cursor rejected" `Quick
      test_send_behind_cursor_rejected;
    Alcotest.test_case "send behind a ring-less receive rejected" `Quick
      test_send_behind_ringless_cursor_rejected;
    Alcotest.test_case "broadcast behind a receive rejected" `Quick
      test_broadcast_behind_receive_rejected;
    Alcotest.test_case "reliable: no loss, no duplication" `Quick
      test_reliability;
    Alcotest.test_case "broadcast: one record, p-1 messages" `Quick
      test_broadcast_basic;
    Alcotest.test_case "broadcast merges with unicasts in order" `Quick
      test_broadcast_merge_order;
    Alcotest.test_case "broadcast stream grows and reclaims" `Quick
      test_broadcast_stream_growth;
    Alcotest.test_case "broadcast to deactivated pid rots in pending" `Quick
      test_broadcast_deactivate;
    Alcotest.test_case "broadcast ring = reference on random traffic" `Quick
      test_broadcast_ring_matches_ref_random;
    Alcotest.test_case "deactivated source keeps broadcasting" `Quick
      test_deactivated_source_keeps_broadcasting;
    Alcotest.test_case "chain skips the receiver's own entries" `Quick
      test_chain_skips_own_entries;
    Alcotest.test_case "lagging clock, then the chain" `Quick
      test_lagging_clock_then_chain;
    QCheck_alcotest.to_alcotest prop_network_matches_ref;
    Alcotest.test_case "payload released with its last copy" `Quick
      test_payload_released_with_last_copy;
    Alcotest.test_case "broadcast payload released" `Quick
      test_broadcast_payload_released;
    Alcotest.test_case "replica payload released" `Quick
      test_replica_payload_released;
    QCheck_alcotest.to_alcotest prop_payload_reuse_matches_ref;
  ]
