(* Golden regression tests: exact metrics for fixed seeds.

   The simulator's value rests on bit-for-bit reproducibility; these pins
   detect any unintended change to the engine's semantics (step order,
   delivery order, accounting, RNG streams, algorithm logic). If one of
   these fails after a deliberate semantic change, regenerate the values
   and say so in the commit — never "fix" a golden test silently. *)

open Doall_core

let golden =
  [
    (* algo, adversary, p, t, d, (work, messages, sigma, executions) *)
    ("trivial", "fair", 4, 16, 2, (64, 0, 15, 64));
    ("da-q2", "max-delay", 8, 32, 4, (80, 112, 9, 56));
    ("da-q4", "lb-det", 16, 16, 4, (68, 330, 19, 19));
    ("paran1", "uniform-delay", 8, 24, 3, (56, 378, 6, 54));
    ("paran2", "random-half", 6, 18, 5, (29, 145, 10, 29));
    ("padet", "lb-rand", 12, 12, 3, (42, 462, 4, 42));
    ("coord", "max-delay", 8, 32, 8, (168, 49, 20, 41));
    ("awq-q4", "max-delay", 8, 24, 4, (344, 532, 42, 48));
    ("awq-abd-q4", "fair", 5, 15, 2, (190, 516, 37, 23));
    ("da-q4", "crash-all-but-one", 6, 24, 2, (46, 35, 30, 30));
    ("padet", "partition", 8, 32, 8, (96, 672, 11, 96));
    ("paran1", "stragglers", 9, 27, 6, (81, 648, 8, 81));
    (* instance-sized parameters far past 4096: crash count p-1 and p/2,
       rotating window p/4 *)
    ("trivial", "crash-all-but-one", 5000, 16, 2, (10014, 0, 15, 10014));
    ("trivial", "crash-half", 9000, 16, 2, (94500, 0, 15, 94500));
    ("trivial", "round-robin", 16400, 2, 2, (8200, 0, 1, 8200));
  ]

let test_pinned_runs () =
  Doall_quorum.Register.install ();
  List.iter
    (fun (algo, adv, p, t, d, (work, messages, sigma, executions)) ->
      let m = (Runner.run ~seed:42 ~algo ~adv ~p ~t ~d ()).Runner.metrics in
      let got =
        ( m.Doall_sim.Metrics.work,
          m.Doall_sim.Metrics.messages,
          m.Doall_sim.Metrics.sigma,
          m.Doall_sim.Metrics.executions )
      in
      let gw, gm, gs, gx = got in
      if got <> (work, messages, sigma, executions) then
        Alcotest.failf
          "golden drift for %s/%s p=%d t=%d d=%d: expected W=%d M=%d s=%d \
           x=%d, got W=%d M=%d s=%d x=%d"
          algo adv p t d work messages sigma executions gw gm gs gx)
    golden

let test_rng_stream_pinned () =
  (* The RNG is upstream of everything; pin its raw stream. *)
  let rng = Doall_sim.Rng.create 42 in
  let got = List.init 4 (fun _ -> Doall_sim.Rng.bits64 rng) in
  let expected_head = List.nth got 0 in
  (* self-consistency across a fresh generator *)
  let rng2 = Doall_sim.Rng.create 42 in
  Alcotest.(check int64) "stream head stable" expected_head
    (Doall_sim.Rng.bits64 rng2);
  (* and the int projection *)
  let rng3 = Doall_sim.Rng.create 7 in
  let ints = List.init 6 (fun _ -> Doall_sim.Rng.int rng3 1000) in
  let rng4 = Doall_sim.Rng.create 7 in
  let ints' = List.init 6 (fun _ -> Doall_sim.Rng.int rng4 1000) in
  Alcotest.(check (list int)) "int stream stable" ints ints'

let suite =
  [
    Alcotest.test_case "pinned run metrics" `Quick test_pinned_runs;
    Alcotest.test_case "pinned rng streams" `Quick test_rng_stream_pinned;
  ]
