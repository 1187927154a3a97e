open Doall_core
open Doall_perms
open Doall_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* all [count] processors step in every round, [n] rounds *)
let lockstep_rounds ~n ~count = List.init n (fun _ -> List.init count Fun.id)

let test_lockstep_counts () =
  let n = 4 in
  let psi = Gen.identity_list ~n ~count:n in
  let stats =
    Oblido.replay ~psi ~rounds:(lockstep_rounds ~n ~count:n)
  in
  check_int "n^2 executions" (n * n) stats.Oblido.executions;
  (* all processors hit job j in the same round: all primary *)
  check_int "lockstep identity: all primary" (n * n) stats.Oblido.primary

let test_serial_identity () =
  (* one processor at a time, identical schedules: only the first pass is
     primary *)
  let n = 5 in
  let psi = Gen.identity_list ~n ~count:n in
  let rounds = List.concat_map (fun u -> List.init n (fun _ -> [ u ]))
      (List.init n Fun.id)
  in
  let stats = Oblido.replay ~psi ~rounds in
  check_int "n^2 executions" (n * n) stats.Oblido.executions;
  check_int "n primary" n stats.Oblido.primary

let test_two_processor_reverse () =
  (* Section 4 example, p2 = reverse of p1. Strictly serial p1-then-p2:
     every p2 execution is secondary, so exactly n primaries. Racing in
     lockstep instead: p2's first job (n-1) is executed concurrently with
     p1's first (0), giving one extra primary when n >= 2 and the halves
     never collide earlier (reverse vs identity meet in the middle). *)
  let n = 6 in
  let psi = [ Perm.identity n; Perm.reverse n ] in
  let serial =
    List.init n (fun _ -> [ 0 ]) @ List.init n (fun _ -> [ 1 ])
  in
  let stats = Oblido.replay ~psi ~rounds:serial in
  check_int "serial: n primaries" n stats.Oblido.primary;
  let lockstep = lockstep_rounds ~n ~count:2 in
  let stats2 = Oblido.replay ~psi ~rounds:lockstep in
  (* identity covers 0,1,2 while reverse covers 5,4,3: disjoint halves,
     so every execution before the crossover is primary. *)
  check_int "lockstep: all 2n primary until crossover" (2 * n)
    stats2.Oblido.executions;
  check "lockstep primaries within [n, Cont]" true
    (stats2.Oblido.primary >= n
     && stats2.Oblido.primary
        <= Contention.contention_exact psi + n (* slack: concurrency *))

let test_primary_at_least_n () =
  let rng = Rng.create 41 in
  for n = 2 to 6 do
    let psi = Gen.random_list ~rng ~n ~count:n in
    let rounds = Oblido.random_rounds ~rng ~n ~count:n ~prob:0.5 in
    let stats = Oblido.replay ~psi ~rounds in
    check "primary >= n" true (stats.Oblido.primary >= n);
    check_int "executions = n^2" (n * n) stats.Oblido.executions
  done

let test_lemma_4_2_bound () =
  (* Primary executions never exceed Cont(psi), over many random
     interleavings (Lemma 4.2). n small enough for exact contention. *)
  let rng = Rng.create 42 in
  for n = 2 to 6 do
    let psi = Gen.random_list ~rng ~n ~count:n in
    let cont = Contention.contention_exact psi in
    for trial = 1 to 20 do
      let prob = 0.2 +. (0.15 *. float_of_int (trial mod 5)) in
      let rounds = Oblido.random_rounds ~rng ~n ~count:n ~prob in
      let stats = Oblido.replay ~psi ~rounds in
      if stats.Oblido.primary > cont then
        Alcotest.failf "n=%d trial=%d: primary %d > Cont %d" n trial
          stats.Oblido.primary cont
    done
  done

let test_lemma_4_2_adversarial () =
  let rng = Rng.create 43 in
  for n = 2 to 6 do
    let psi = Gen.random_list ~rng ~n ~count:n in
    let cont = Contention.contention_exact psi in
    let rounds = Oblido.adversarial_rounds ~psi in
    let stats = Oblido.replay ~psi ~rounds in
    check "adversarial interleaving still bounded" true
      (stats.Oblido.primary <= cont)
  done

let test_low_contention_certificate_orders_lists () =
  (* A certified list's contention (the Lemma 4.2 primary bound) is
     strictly below the identity list's n^2, so its worst-case primary
     guarantee is strictly better. *)
  let rng = Rng.create 44 in
  let n = 5 in
  let good = (Search.certified ~rng n).Search.list in
  let bad = Gen.identity_list ~n ~count:n in
  let cg = Contention.contention_exact good in
  let cb = Contention.contention_exact bad in
  check "certified bound strictly better" true (cg < cb);
  (* and the measured primaries respect the certified bound *)
  let stats = Oblido.replay ~psi:good ~rounds:(Oblido.adversarial_rounds ~psi:good) in
  check "measured primaries under certificate" true (stats.Oblido.primary <= cg)

let test_lemma_4_2_exhaustive_n3 () =
  (* Complete verification at n = 3: every list psi in (S_3)^3 (216
     lists) against every serial interleaving of the 3x3 executions
     (9!/(3!)^3 = 1680 orderings): primaries <= Cont(psi), no exceptions.
     This is Lemma 4.2 proved by enumeration at this size. *)
  let perms3 = Array.of_list (Perm.all 3) in
  (* enumerate interleavings as sequences over {0,1,2} with three of each *)
  let interleavings =
    let acc = ref [] in
    let counts = [| 0; 0; 0 |] in
    let seq = Array.make 9 0 in
    let rec go depth =
      if depth = 9 then acc := Array.copy seq :: !acc
      else
        for u = 0 to 2 do
          if counts.(u) < 3 then begin
            counts.(u) <- counts.(u) + 1;
            seq.(depth) <- u;
            go (depth + 1);
            counts.(u) <- counts.(u) - 1
          end
        done
    in
    go 0;
    !acc
  in
  check_int "1680 interleavings" 1680 (List.length interleavings);
  let checked = ref 0 in
  Array.iter (fun p0 ->
      Array.iter (fun p1 ->
          Array.iter (fun p2 ->
              let psi = [ p0; p1; p2 ] in
              let cont = Contention.contention_exact psi in
              List.iter
                (fun seq ->
                  let rounds = Array.to_list (Array.map (fun u -> [ u ]) seq) in
                  let stats = Oblido.replay ~psi ~rounds in
                  incr checked;
                  if stats.Oblido.primary > cont then
                    Alcotest.failf
                      "Lemma 4.2 violated: psi=%s cont=%d primaries=%d"
                      (String.concat ";"
                         (List.map
                            (fun pi ->
                              String.concat ""
                                (List.map string_of_int
                                   (Array.to_list (Perm.to_array pi))))
                            psi))
                      cont stats.Oblido.primary)
                interleavings)
            perms3)
        perms3)
    perms3;
  check_int "all 216 * 1680 cases checked" (216 * 1680) !checked

let test_duplicate_pid_rejected () =
  let psi = Gen.identity_list ~n:2 ~count:2 in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Oblido.replay: duplicate pid in round") (fun () ->
      ignore (Oblido.replay ~psi ~rounds:[ [ 0; 0 ] ]))

let test_engine_oblido () =
  let n = 6 in
  let psi = Gen.seeded_list ~seed:7 ~n ~count:6 in
  let cfg = Config.make ~p:6 ~t:6 () in
  let m =
    Engine.run_packed (Oblido.make ~psi ()) cfg ~d:3
      ~adversary:Adversary.fair ()
  in
  check "completes" true m.Doall_sim.Metrics.completed;
  check_int "no messages (oblivious)" 0 m.Doall_sim.Metrics.messages;
  check_int "everyone does everything" (6 * 6) m.Doall_sim.Metrics.executions

let test_engine_oblido_with_jobs () =
  let psi = Gen.seeded_list ~seed:8 ~n:4 ~count:4 in
  let cfg = Config.make ~p:4 ~t:13 () in
  let m =
    Engine.run_packed (Oblido.make ~psi ()) cfg ~d:2
      ~adversary:Adversary.fair ()
  in
  check "completes with jobs" true m.Doall_sim.Metrics.completed;
  check_int "p * t executions" (4 * 13) m.Doall_sim.Metrics.executions

let prop_replay_primary_bounds =
  QCheck2.Test.make ~name:"n <= primary <= executions = n*count" ~count:100
    QCheck2.Gen.(pair (int_range 2 7) (int_range 2 7))
    (fun (n, count) ->
      let rng = Rng.create ((n * 100) + count) in
      let psi = Gen.random_list ~rng ~n ~count in
      let rounds = Oblido.random_rounds ~rng ~n ~count ~prob:0.6 in
      let stats = Oblido.replay ~psi ~rounds in
      stats.Oblido.executions = n * count
      && stats.Oblido.primary >= n
      && stats.Oblido.primary <= stats.Oblido.executions)

let suite =
  [
    Alcotest.test_case "lockstep identity counts" `Quick test_lockstep_counts;
    Alcotest.test_case "serial identity: n primaries" `Quick
      test_serial_identity;
    Alcotest.test_case "two-processor reverse example" `Quick
      test_two_processor_reverse;
    Alcotest.test_case "primary >= n" `Quick test_primary_at_least_n;
    Alcotest.test_case "Lemma 4.2: primary <= Cont (random)" `Slow
      test_lemma_4_2_bound;
    Alcotest.test_case "Lemma 4.2: primary <= Cont (adversarial)" `Quick
      test_lemma_4_2_adversarial;
    Alcotest.test_case "low contention helps" `Quick
      test_low_contention_certificate_orders_lists;
    Alcotest.test_case "Lemma 4.2 exhaustive at n=3" `Slow
      test_lemma_4_2_exhaustive_n3;
    Alcotest.test_case "duplicate pid rejected" `Quick
      test_duplicate_pid_rejected;
    Alcotest.test_case "engine ObliDo" `Quick test_engine_oblido;
    Alcotest.test_case "engine ObliDo with jobs" `Quick
      test_engine_oblido_with_jobs;
    QCheck_alcotest.to_alcotest prop_replay_primary_bounds;
  ]
