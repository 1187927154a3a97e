open Doall_core
open Doall_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let job_size part j = Task.job_hi part j - Task.job_lo part j

let test_p_ge_t () =
  let part = Task.make ~p:10 ~t:6 in
  check_int "n = t" 6 part.Task.n;
  for j = 0 to 5 do
    check_int "singleton jobs" 1 (job_size part j);
    Alcotest.(check (list int)) "job j = task j" [ j ]
      (Task.tasks_of_job part j)
  done

let test_p_lt_t () =
  let part = Task.make ~p:4 ~t:10 in
  check_int "n = p" 4 part.Task.n;
  let sizes = List.init 4 (job_size part) in
  check_int "total tasks" 10 (List.fold_left ( + ) 0 sizes);
  List.iter
    (fun s -> check "sizes within ceil(t/p)" true (s = 2 || s = 3))
    sizes

let test_job_of_task_consistent () =
  let part = Task.make ~p:3 ~t:11 in
  for z = 0 to 10 do
    let owners =
      List.filter
        (fun j -> List.mem z (Task.tasks_of_job part j))
        (List.init part.Task.n Fun.id)
    in
    check_int "one job per task" 1 (List.length owners)
  done

let test_contiguous_cover () =
  let part = Task.make ~p:5 ~t:17 in
  let all = List.concat_map (Task.tasks_of_job part) (List.init part.Task.n Fun.id) in
  Alcotest.(check (list int)) "jobs partition tasks" (List.init 17 Fun.id)
    (List.sort compare all)

let test_job_done_and_next_member () =
  let part = Task.make ~p:2 ~t:5 in
  (* job 0 = {0,1,2}, job 1 = {3,4} *)
  let know = Bitset.create 5 in
  check "initially not done" false (Task.job_done part know 0);
  Alcotest.(check (option int)) "first member" (Some 0)
    (Task.next_member part know 0);
  Bitset.set know 0;
  Bitset.set know 2;
  Alcotest.(check (option int)) "skips known members" (Some 1)
    (Task.next_member part know 0);
  Bitset.set know 1;
  check "now done" true (Task.job_done part know 0);
  Alcotest.(check (option int)) "no member left" None
    (Task.next_member part know 0);
  check "job 1 unaffected" false (Task.job_done part know 1)

let prop_first_unknown_agrees_with_next_member =
  (* [first_unknown ~from:lo] is [next_member]; with a carried cursor it
     must keep agreeing as knowledge grows (the monotone-scan contract
     Algo_pa's per-step job cursor relies on). *)
  QCheck2.Test.make ~name:"first_unknown = next_member under monotone growth"
    ~count:300
    QCheck2.Gen.(
      let* p = int_range 1 10 in
      let* t = int_range 1 80 in
      let* sets = list_size (int_range 0 60) (int_range 0 (t - 1)) in
      return (p, t, sets))
    (fun (p, t, sets) ->
      let part = Task.make ~p ~t in
      let know = Bitset.create t in
      let cursors = Array.make part.Task.n 0 in
      List.init part.Task.n Fun.id
      |> List.iter (fun j ->
             cursors.(j) <- Task.job_lo part j);
      List.for_all
        (fun i ->
          Bitset.set know i;
          List.for_all
            (fun j ->
              let lo = Task.job_lo part j and hi = Task.job_hi part j in
              (* cursor-carried scan = fresh scan = next_member *)
              cursors.(j) <-
                Task.first_unknown part know j ~from:cursors.(j);
              let fresh = Task.first_unknown part know j ~from:lo in
              cursors.(j) = fresh
              &&
              match Task.next_member part know j with
              | Some z -> fresh = z && z < hi
              | None -> fresh = hi)
            (List.init part.Task.n Fun.id))
        sets)

let test_jobs_done_count () =
  let part = Task.make ~p:3 ~t:6 in
  let know = Bitset.of_list 6 [ 0; 1; 4; 5 ] in
  (* jobs: {0,1} {2,3} {4,5} *)
  check_int "two jobs done" 2
    (List.length (List.filter (Task.job_done part know) [ 0; 1; 2 ]))

let test_validation () =
  Alcotest.check_raises "bad p"
    (Invalid_argument "Task.make: p and t must be positive") (fun () ->
      ignore (Task.make ~p:0 ~t:3));
  let part = Task.make ~p:2 ~t:4 in
  Alcotest.check_raises "bad job" (Invalid_argument "Task: job id out of range")
    (fun () -> ignore (Task.job_hi part 2))

let prop_partition_invariants =
  QCheck2.Test.make ~name:"partition invariants" ~count:300
    QCheck2.Gen.(pair (int_range 1 40) (int_range 1 200))
    (fun (p, t) ->
      let part = Task.make ~p ~t in
      let n = part.Task.n in
      let ceil_tp = (t + p - 1) / p in
      n = min p t
      && List.for_all
           (fun j ->
             let s = job_size part j in
             s >= 1 && s <= max 1 ceil_tp)
           (List.init n Fun.id)
      && List.fold_left ( + ) 0 (List.init n (job_size part)) = t)

(* The grouping as it was once stored: a per-task job map and a range
   list, filled job by job. The arithmetic partition must agree with it
   everywhere. *)
let reference_partition ~p ~t =
  let n = min p t in
  let base = t / n and extra = t mod n in
  let ranges = Array.make n (0, 0) in
  let job_of_task = Array.make t 0 in
  let start = ref 0 in
  for j = 0 to n - 1 do
    let size = base + if j < extra then 1 else 0 in
    ranges.(j) <- (!start, !start + size);
    for z = !start to !start + size - 1 do
      job_of_task.(z) <- j
    done;
    start := !start + size
  done;
  (job_of_task, Array.to_list ranges)

let prop_partition_matches_reference =
  QCheck2.Test.make ~name:"arithmetic partition = per-task reference"
    ~count:500
    QCheck2.Gen.(
      let* p = int_range 1 64 in
      let* t =
        oneof
          [
            int_range 1 600;
            (* p > t *)
            int_range 1 (max 1 (p - 1));
            (* t mod p = 0 *)
            map (fun k -> p * k) (int_range 1 (600 / p));
            (* t mod p = p - 1 *)
            map
              (fun k -> max 1 ((p * k) + p - 1))
              (int_range 0 ((600 / p) - 1));
          ]
      in
      return (p, t))
    (fun (p, t) ->
      let part = Task.make ~p ~t in
      let ref_job_of_task, ranges = reference_partition ~p ~t in
      part.Task.n = List.length ranges
      && List.for_all
           (fun (j, (lo, hi)) ->
             Task.job_lo part j = lo
             && Task.job_hi part j = hi
             && job_size part j = hi - lo
             && Task.tasks_of_job part j = List.init (hi - lo) (( + ) lo)
             && (j = 0 || Task.job_lo part j = Task.job_hi part (j - 1)))
           (List.mapi (fun j r -> (j, r)) ranges)
      && Task.job_lo part 0 = 0
      && Task.job_hi part (part.Task.n - 1) = t
      && Array.for_all Fun.id
           (Array.mapi
              (fun z j -> Task.job_lo part j <= z && z < Task.job_hi part j)
              ref_job_of_task))

let test_partition_size () =
  (* O(1) words whatever t is: no per-task map, no range table. *)
  let words = Obj.reachable_words (Obj.repr (Task.make ~p:256 ~t:131072)) in
  check "partition under 16 words" true (words < 16)

let suite =
  [
    Alcotest.test_case "p >= t: singleton jobs" `Quick test_p_ge_t;
    Alcotest.test_case "p < t: balanced jobs" `Quick test_p_lt_t;
    Alcotest.test_case "job_of_task consistent" `Quick
      test_job_of_task_consistent;
    Alcotest.test_case "jobs cover all tasks" `Quick test_contiguous_cover;
    Alcotest.test_case "job_done / next_member" `Quick
      test_job_done_and_next_member;
    QCheck_alcotest.to_alcotest prop_first_unknown_agrees_with_next_member;
    Alcotest.test_case "jobs_done_count" `Quick test_jobs_done_count;
    Alcotest.test_case "validation" `Quick test_validation;
    QCheck_alcotest.to_alcotest prop_partition_invariants;
    QCheck_alcotest.to_alcotest prop_partition_matches_reference;
    Alcotest.test_case "partition is O(1) words" `Quick test_partition_size;
  ]
