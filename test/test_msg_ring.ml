open Doall_sim

(* Pop every event due by [now], as (due, id) pairs in delivery order. *)
let drain r ~now =
  let acc = ref [] in
  while Msg_ring.peek r ~now do
    acc := (Msg_ring.head_due r, Msg_ring.head_id r) :: !acc;
    Msg_ring.pop r
  done;
  List.rev !acc

let events = Alcotest.(list (pair int int))

let test_bucket_spans_laps () =
  (* horizon 3 means 4 buckets: dues 3 and 7 share a bucket. A reader
     that has not polled since the start leaves the cursor behind both,
     so the bucket holds both laps at once and must yield them in due
     order, with due 5 from another bucket in between. *)
  let r = Msg_ring.create ~horizon:3 () in
  (* sender's clock 0 *)
  Msg_ring.add r ~due:3 ~id:10;
  (* sender's clock 4: due 7 is within the horizon, due 3 still queued *)
  Msg_ring.add r ~due:7 ~id:11;
  Msg_ring.add r ~due:5 ~id:12;
  Alcotest.(check int) "three queued" 3 (Msg_ring.size r);
  Alcotest.check events "first lap" [ (3, 10); (5, 12) ] (drain r ~now:6);
  Alcotest.check events "second lap" [ (7, 11) ] (drain r ~now:7);
  Alcotest.(check int) "empty" 0 (Msg_ring.size r)

let test_growth_with_wrapped_head () =
  (* horizon 1: dues 1 and 3 share bucket 1. Fill it to its first
     capacity (4), pop two so the head sits mid-array, then append
     three more: the first two wrap to the array's start and the third
     grows the bucket while its live range straddles the end. *)
  let r = Msg_ring.create ~horizon:1 () in
  for id = 0 to 3 do
    Msg_ring.add r ~due:1 ~id
  done;
  Alcotest.(check bool) "due at 1" true (Msg_ring.peek r ~now:1);
  Msg_ring.pop r;
  Alcotest.(check bool) "still due at 1" true (Msg_ring.peek r ~now:1);
  Msg_ring.pop r;
  (* sender's clock 2; the reader stopped after two pops *)
  for id = 4 to 6 do
    Msg_ring.add r ~due:3 ~id
  done;
  Alcotest.(check int) "five queued" 5 (Msg_ring.size r);
  Alcotest.check events "FIFO across the grow"
    [ (1, 2); (1, 3); (3, 4); (3, 5); (3, 6) ]
    (drain r ~now:3)

let test_add_behind_cursor () =
  let r = Msg_ring.create ~horizon:4 () in
  Alcotest.(check bool) "nothing due" false (Msg_ring.peek r ~now:5);
  let behind due () = Msg_ring.add r ~due ~id:0 in
  Alcotest.check_raises "at the cursor"
    (Invalid_argument "Msg_ring.add: ring event at or before the cursor")
    (behind 5);
  Alcotest.check_raises "before the cursor"
    (Invalid_argument "Msg_ring.add: ring event at or before the cursor")
    (behind 2);
  Msg_ring.add r ~due:6 ~id:1;
  Alcotest.check events "after the cursor" [ (6, 1) ] (drain r ~now:6)

(* The packing caps due and id at [cap] ([Msg_ring.max_due] and
   [Msg_ring.max_id]); one past either is rejected before any write. An
   empty ring's cursor jumps to the polled instant, so the test starts
   it near the cap without walking there. *)
let cap = (1 lsl 31) - 1

let test_add_past_cap () =
  let top = cap in
  let r = Msg_ring.create ~horizon:4 () in
  Alcotest.(check bool) "nothing due" false (Msg_ring.peek r ~now:(top - 4));
  Msg_ring.add r ~due:(top - 1) ~id:7;
  Alcotest.check_raises "due past the cap"
    (Invalid_argument "Msg_ring.add: due past Msg_ring.max_due (2^31 - 1)")
    (fun () -> Msg_ring.add r ~due:(top + 1) ~id:0);
  let bad_id = "Msg_ring.add: id outside [0, Msg_ring.max_id] (2^31 - 1)" in
  Alcotest.check_raises "id past the cap" (Invalid_argument bad_id) (fun () ->
      Msg_ring.add r ~due:top ~id:(cap + 1));
  Alcotest.check_raises "negative id" (Invalid_argument bad_id) (fun () ->
      Msg_ring.add_in r ~bucket:(top mod 5) ~due:top ~id:(-1));
  Alcotest.(check int) "size unchanged" 1 (Msg_ring.size r);
  Msg_ring.add r ~due:top ~id:cap;
  Alcotest.check events "both extremes decode"
    [ (top - 1, 7); (top, cap) ]
    (drain r ~now:top)

(* The same cap through every [Network] send, checked before a record
   is taken: [sent], [pending] and later deliveries are unchanged, and
   the payload table does not hold the rejected payload. *)
let[@inline never] rejected_payload f =
  let w = Weak.create 1 in
  let m = Bytes.make 64 'x' in
  Weak.set w 0 (Some m);
  (try f m with Invalid_argument _ -> ());
  w

let test_network_due_past_cap () =
  let top = cap and horizon = 4 in
  let net = Network.create ~horizon ~p:3 () in
  let receive dst ~now =
    List.map
      (fun (s, m) -> (s, Bytes.to_string m))
      (Test_network.receive net ~dst ~now)
  in
  (* the first payload a network sees fills released slots for good *)
  Network.send net ~src:0 ~dst:1 ~due:1 (Bytes.make 64 'f');
  let now = top - horizon in
  Alcotest.(check int) "throwaway received" 1 (List.length (receive 1 ~now));
  List.iter
    (fun dst ->
      Alcotest.(check int) "nothing else" 0 (List.length (receive dst ~now)))
    [ 0; 2 ];
  let sent = Network.sent net and pending = Network.pending net in
  let past name =
    Invalid_argument (name ^ ": due past Msg_ring.max_due (2^31 - 1)")
  and past_window =
    Invalid_argument
      "Network.multicast: now + horizon past Msg_ring.max_due (2^31 - 1)"
  in
  let raises name e f =
    Alcotest.check_raises name e (fun () -> f (Bytes.make 1 'r'))
  in
  raises "send" (past "Network.send") (fun m ->
      Network.send net ~src:0 ~dst:1 ~due:(top + 1) m);
  raises "replica" (past "Network.send_replica") (fun m ->
      Network.send_replica net ~src:0 ~dst:2 ~due:(top + 1) m);
  raises "multicast" past_window (fun m ->
      Network.multicast net ~src:0 ~now:(now + 1)
        ~dues:[| 0; top + 1; top |]
        m);
  (* the cap is on [now + horizon], wherever the copies' dues fall *)
  raises "multicast due within the cap" past_window (fun m ->
      Network.multicast net ~src:0 ~now:(now + 1) ~dues:[| 0; top; top |] m);
  let ws =
    [
      rejected_payload (fun m ->
          Network.send net ~src:0 ~dst:1 ~due:(top + 1) m);
      rejected_payload (fun m ->
          Network.multicast net ~src:2 ~now:(now + 1)
            ~dues:[| top + 1; top; 0 |]
            m);
    ]
  in
  Gc.full_major ();
  List.iter
    (fun w -> Alcotest.(check bool) "payload not held" false (Weak.check w 0))
    ws;
  Alcotest.(check int) "sent unchanged" sent (Network.sent net);
  Alcotest.(check int) "pending unchanged" pending (Network.pending net);
  Network.send net ~src:0 ~dst:1 ~due:top (Bytes.of_string "in");
  Network.multicast net ~src:2 ~now
    ~dues:[| top; top - 1; 0 |]
    (Bytes.of_string "mc");
  Alcotest.(check (list (pair int string)))
    "dst 1 at the cap"
    [ (2, "mc"); (0, "in") ]
    (receive 1 ~now:top);
  Alcotest.(check (list (pair int string)))
    "dst 0 at the cap" [ (2, "mc") ] (receive 0 ~now:top);
  Alcotest.(check int) "nothing pending" 0 (Network.pending net)

(* Differential test against a sorted-list model: events added within
   the horizon of a non-decreasing sender clock, taken by a reader whose
   clock lags it by up to three laps of the ring (so one bucket holds
   several laps), a few at a time, with dues and ids reaching the packed
   maximum. Delivery order is (due, insertion order). *)
type op = Advance of int | Add of int * int | Take of int * int

let show_op = function
  | Advance k -> Printf.sprintf "advance %d" k
  | Add (lat, id) -> Printf.sprintf "add +%d id %d" lat id
  | Take (lag, k) -> Printf.sprintf "take lag %d max %d" lag k

let prop_ring_matches_model =
  let horizon = 5 in
  QCheck2.Test.make ~name:"ring = sorted-list model up to the packed cap"
    ~count:300
    ~print:(fun (high, ops) ->
      Printf.sprintf "%s: %s"
        (if high then "near the cap" else "from 0")
        (String.concat "; " (List.map show_op ops)))
    QCheck2.Gen.(
      let id =
        oneof
          [ int_range 0 50; int_range (cap - 50) cap ]
      in
      let op =
        frequency
          [
            (2, map (fun k -> Advance k) (int_range 0 4));
            (5, map2 (fun lat id -> Add (lat, id)) (int_range 1 horizon) id);
            ( 2,
              map2
                (fun lag k -> Take (lag, k))
                (int_range 0 (3 * (horizon + 1)))
                (int_range 1 8) );
          ]
      in
      pair bool (list_size (int_range 1 150) op))
    (fun (high, ops) ->
      let r = Msg_ring.create ~horizon () in
      (* near the cap, 150 advances of 4 reach it *)
      let start = if high then cap - 600 else 0 in
      ignore (Msg_ring.peek r ~now:start : bool);
      let clock = ref start and read = ref start in
      let model = ref [] (* (due, insertion, id), sorted *) and n = ref 0 in
      let ok = ref true in
      let rec take k =
        if k > 0 then
          if Msg_ring.peek r ~now:!read then begin
            let got = (Msg_ring.head_due r, Msg_ring.head_id r) in
            Msg_ring.pop r;
            match !model with
            | (due, _, id) :: rest when (due, id) = got && due <= !read ->
              model := rest;
              take (k - 1)
            | _ -> ok := false
          end
          else
            (* nothing due by [read] is left *)
            match !model with
            | (due, _, _) :: _ when due <= !read -> ok := false
            | _ -> ()
      in
      List.iter
        (fun op ->
          (match op with
           | Advance k -> clock := min (!clock + k) (cap - 1)
           | Add (lat, id) ->
             let due = min (!clock + lat) cap in
             Msg_ring.add r ~due ~id;
             incr n;
             model := List.merge compare !model [ (due, !n, id) ]
           | Take (lag, k) ->
             (* the reader's clock never passes the sender's *)
             read := max !read (!clock - lag);
             take k);
          if Msg_ring.size r <> List.length !model then ok := false)
        ops;
      !ok)

let suite =
  [
    Alcotest.test_case "bucket holds two laps behind a lagging cursor" `Quick
      test_bucket_spans_laps;
    Alcotest.test_case "growth while the bucket head has wrapped" `Quick
      test_growth_with_wrapped_head;
    Alcotest.test_case "add at or before the cursor rejected" `Quick
      test_add_behind_cursor;
    Alcotest.test_case "due or id past the packed cap rejected" `Quick
      test_add_past_cap;
    Alcotest.test_case "network sends past the cap leave no trace" `Quick
      test_network_due_past_cap;
    QCheck_alcotest.to_alcotest prop_ring_matches_model;
  ]
