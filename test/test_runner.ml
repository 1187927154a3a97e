open Doall_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* the algorithms that terminate whenever one processor keeps stepping:
   every built-in, and none of the quorum variants other suites
   register into the shared registry *)
let any_survivor () =
  List.filter
    (fun s -> s.Runner.liveness = `Any_survivor)
    (Runner.all_algorithms ())

let test_registries_populated () =
  check "at least 10 algorithms" true (List.length (any_survivor ()) >= 10);
  check "at least 12 adversaries" true (List.length Runner.adversaries >= 12)

let test_registry_names_unique () =
  let names =
    List.map (fun s -> s.Runner.algo_name) (Runner.all_algorithms ())
  in
  check_int "unique algo names" (List.length names)
    (List.length (List.sort_uniq compare names));
  let advs = List.map (fun s -> s.Runner.adv_name) Runner.adversaries in
  check_int "unique adv names" (List.length advs)
    (List.length (List.sort_uniq compare advs))

let test_find () =
  check "finds da-q4" true ((Runner.find_algo "da-q4").Runner.algo_name = "da-q4");
  check "finds lb-det" true ((Runner.find_adv "lb-det").Runner.adv_name = "lb-det")

let test_find_unknown () =
  check "unknown algo raises Failure" true
    (try ignore (Runner.find_algo "nope"); false with Failure _ -> true);
  check "unknown adv raises Failure" true
    (try ignore (Runner.find_adv "nope"); false with Failure _ -> true)

let test_run_returns_metrics () =
  let r = Runner.run ~algo:"padet" ~adv:"fair" ~p:4 ~t:16 ~d:2 () in
  check "completed" true r.Runner.metrics.Doall_sim.Metrics.completed;
  check_int "p recorded" 4 r.Runner.metrics.Doall_sim.Metrics.p

let test_every_algo_runs_under_every_adversary () =
  List.iter
    (fun aspec ->
      List.iter
        (fun vspec ->
          let r =
            Runner.run ~algo:aspec.Runner.algo_name
              ~adv:vspec.Runner.adv_name ~p:5 ~t:15 ~d:3 ~seed:2 ()
          in
          if not r.Runner.metrics.Doall_sim.Metrics.completed then
            Alcotest.failf "%s vs %s did not complete" aspec.Runner.algo_name
              vspec.Runner.adv_name)
        Runner.adversaries)
    (any_survivor ())

let test_deterministic_flags () =
  List.iter
    (fun aspec ->
      if aspec.Runner.deterministic then begin
        let w seed =
          (Runner.run ~seed ~algo:aspec.Runner.algo_name ~adv:"max-delay"
             ~p:6 ~t:18 ~d:4 ())
            .Runner.metrics
            .Doall_sim.Metrics.work
        in
        (* deterministic algorithms are seed-insensitive under a
           deterministic adversary *)
        check_int (aspec.Runner.algo_name ^ " seed-insensitive") (w 1) (w 2)
      end)
    (any_survivor ())

let test_run_traced () =
  let r, tr =
    Runner.run_traced ~algo:"trivial" ~adv:"fair" ~p:2 ~t:4 ~d:1 ()
  in
  check "completed" true r.Runner.metrics.Doall_sim.Metrics.completed;
  check "trace non-empty" true (Doall_sim.Trace.length tr > 0)

let suite =
  [
    Alcotest.test_case "registries populated" `Quick test_registries_populated;
    Alcotest.test_case "registry names unique" `Quick
      test_registry_names_unique;
    Alcotest.test_case "find by name" `Quick test_find;
    Alcotest.test_case "unknown names rejected" `Quick test_find_unknown;
    Alcotest.test_case "run returns metrics" `Quick test_run_returns_metrics;
    Alcotest.test_case "full registry cross-product" `Slow
      test_every_algo_runs_under_every_adversary;
    Alcotest.test_case "deterministic algorithms seed-insensitive" `Quick
      test_deterministic_flags;
    Alcotest.test_case "run_traced" `Quick test_run_traced;
  ]
