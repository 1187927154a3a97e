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

let suite =
  [
    Alcotest.test_case "bucket holds two laps behind a lagging cursor" `Quick
      test_bucket_spans_laps;
    Alcotest.test_case "growth while the bucket head has wrapped" `Quick
      test_growth_with_wrapped_head;
    Alcotest.test_case "add at or before the cursor rejected" `Quick
      test_add_behind_cursor;
  ]
