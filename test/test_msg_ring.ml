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

let drain_all r ~now =
  while Msg_ring.peek r ~now do
    Msg_ring.pop r
  done

(* A ring keeps each bucket in a chain of 32-event blocks. *)
let block = 32

let test_block_boundary_with_lagging_head () =
  (* horizon 1: dues 1 and 3 share bucket 1. Fill its first block
     (32 events due 1), pop two so the head sits inside it, then append
     three due 3: they open a second block while the head still reads the
     first, and popping through the boundary frees the first block. *)
  let r = Msg_ring.create ~horizon:1 () in
  for id = 0 to block - 1 do
    Msg_ring.add r ~due:1 ~id
  done;
  Alcotest.(check bool) "due at 1" true (Msg_ring.peek r ~now:1);
  Msg_ring.pop r;
  Alcotest.(check bool) "still due at 1" true (Msg_ring.peek r ~now:1);
  Msg_ring.pop r;
  (* sender's clock 2; the reader stopped after two pops *)
  for id = block to block + 2 do
    Msg_ring.add r ~due:3 ~id
  done;
  Alcotest.(check int) "queued" (block + 1) (Msg_ring.size r);
  Alcotest.check events "FIFO across the block boundary"
    (List.init (block - 2) (fun i -> (1, i + 2))
    @ [ (3, block); (3, block + 1); (3, block + 2) ])
    (drain r ~now:3)

let test_block_refilled_by_another_bucket () =
  (* horizon 3: bucket 1 takes two blocks (40 events due 1). Popping 33
     passes its first block, which goes back to the free list while the
     bucket still holds 7 events; 32 events due 2 then fill bucket 2
     from that block without allocating, and both read back in order. *)
  let r = Msg_ring.create ~horizon:3 () in
  for id = 0 to 39 do
    Msg_ring.add r ~due:1 ~id
  done;
  for _ = 1 to 33 do
    Alcotest.(check bool) "due at 1" true (Msg_ring.peek r ~now:1);
    Msg_ring.pop r
  done;
  let w0 = Gc.minor_words () in
  for id = 100 to 100 + block - 1 do
    Msg_ring.add r ~due:2 ~id
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "no block made" 0. words;
  Alcotest.check events "both buckets in order"
    (List.init 7 (fun i -> (1, 33 + i))
    @ List.init block (fun i -> (2, 100 + i)))
    (drain r ~now:2)

(* One burst: at each of [rounds] instants, add [n] events spread
   unevenly over the horizon (most in one bucket, longer than a block),
   then drain everything due. Returns the number of events added. *)
let burst r ~horizon ~start ~rounds ~n =
  for round = 0 to rounds - 1 do
    let now = start + round in
    for i = 0 to n - 1 do
      let lat = if i mod 3 = 0 then 1 + (i mod horizon) else horizon in
      Msg_ring.add r ~due:(now + lat) ~id:i
    done;
    drain_all r ~now
  done;
  drain_all r ~now:(start + rounds + horizon);
  rounds * n

let test_warm_ring_allocates_nothing () =
  let horizon = 7 in
  let r = Msg_ring.create ~horizon () in
  let at ~start = burst r ~horizon ~start ~rounds:20 ~n:150 in
  ignore (at ~start:0 : int);
  let w0 = Gc.minor_words () in
  (* the same burst, shifted so it lands on other buckets *)
  let n = at ~start:1003 in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "drained" 0 (Msg_ring.size r);
  Alcotest.(check (float 0.))
    (Printf.sprintf "minor words over %d events" n)
    0. words

let test_burst_allocates_blocks_only () =
  (* A burst of [n] events into [touched] buckets of a fresh ring makes
     at most ceil(n / 32) + touched blocks. A block is 32 events and a
     link (34 words with its header); the block table grows by doubling
     from 4, so it adds at most 4 words per block and a few headers.
     A bucket grown by copying its events would read about twice this. *)
  let horizon = 7 and n = 1000 in
  let r = Msg_ring.create ~horizon () in
  let w0 = Gc.allocated_bytes () in
  for i = 0 to n - 1 do
    let lat = if i mod 8 = 0 then 1 + (i mod horizon) else horizon in
    Msg_ring.add r ~due:lat ~id:i
  done;
  let words =
    (Gc.allocated_bytes () -. w0) /. float_of_int (Sys.word_size / 8)
  in
  let blocks = ((n + block - 1) / block) + horizon in
  let bound = (blocks * (block + 2 + 4)) + 32 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d events, bound %d" words n bound)
    true
    (words <= float_of_int bound);
  Alcotest.check events "in order"
    (List.sort compare
       (List.init n (fun i ->
            ((if i mod 8 = 0 then 1 + (i mod horizon) else horizon), i))))
    (drain r ~now:horizon)

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
   several laps), a few or many at a time, with dues and ids reaching the
   packed maximum. Bursts put more than a block into one bucket at once,
   so a bucket's chain spans many blocks while the reader lags laps
   behind. Delivery order is (due, insertion order). *)
type op =
  | Advance of int
  | Add of int * int
  | Burst of int * int * int
  | Take of int * int

let show_op = function
  | Advance k -> Printf.sprintf "advance %d" k
  | Add (lat, id) -> Printf.sprintf "add +%d id %d" lat id
  | Burst (lat, k, id) -> Printf.sprintf "burst +%d x%d from id %d" lat k id
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
            ( 1,
              map3
                (fun lat k id -> Burst (lat, k, id))
                (int_range 1 horizon) (int_range 33 100) id );
            ( 2,
              map2
                (fun lag k -> Take (lag, k))
                (oneof
                   [
                     int_range 0 (3 * (horizon + 1));
                     return (2 * (horizon + 1));
                   ])
                (oneof [ int_range 1 8; int_range 30 120 ]) );
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
           | Burst (lat, k, id) ->
             let due = min (!clock + lat) cap in
             let ids = List.init k (fun j -> (id + j) land cap) in
             List.iter (fun id -> Msg_ring.add r ~due ~id) ids;
             let n0 = !n in
             n := n0 + k;
             model :=
               List.merge compare !model
                 (List.mapi (fun j id -> (due, n0 + j + 1, id)) ids)
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
    Alcotest.test_case "block boundary while the bucket head lags" `Quick
      test_block_boundary_with_lagging_head;
    Alcotest.test_case "a freed block refills another bucket" `Quick
      test_block_refilled_by_another_bucket;
    Alcotest.test_case "a warmed ring's second burst allocates nothing" `Quick
      test_warm_ring_allocates_nothing;
    Alcotest.test_case "a burst allocates its blocks only" `Quick
      test_burst_allocates_blocks_only;
    Alcotest.test_case "add at or before the cursor rejected" `Quick
      test_add_behind_cursor;
    Alcotest.test_case "due or id past the packed cap rejected" `Quick
      test_add_past_cap;
    Alcotest.test_case "network sends past the cap leave no trace" `Quick
      test_network_due_past_cap;
    QCheck_alcotest.to_alcotest prop_ring_matches_model;
  ]
