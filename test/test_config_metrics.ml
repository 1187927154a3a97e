open Doall_sim
open Doall_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_config_validation () =
  Alcotest.check_raises "p=0" (Invalid_argument "Config.make: p must be positive")
    (fun () -> ignore (Config.make ~p:0 ~t:4 ()));
  Alcotest.check_raises "t=0" (Invalid_argument "Config.make: t must be positive")
    (fun () -> ignore (Config.make ~p:4 ~t:0 ()))

let test_config_pp () =
  let s = Format.asprintf "%a" Config.pp (Config.make ~seed:7 ~p:3 ~t:9 ()) in
  check "mentions fields" true
    (String.length s > 0
     && (try ignore (Str.search_forward (Str.regexp "p=3") s 0); true
         with Not_found -> false))

let test_metrics_pp_forms () =
  let m = (Runner.run ~algo:"padet" ~adv:"fair" ~p:3 ~t:9 ~d:1 ()).Runner.metrics in
  let one = Format.asprintf "%a" Metrics.pp m in
  check "one-line is one line" true
    (not (String.contains one '\n'))

let test_relational_invariants () =
  (* engine-level relations that must hold for every completed run *)
  List.iter
    (fun (algo, adv, p, t, d) ->
      let m = (Runner.run ~seed:3 ~algo ~adv ~p ~t ~d ()).Runner.metrics in
      check "completed" true m.Metrics.completed;
      (* sigma+1 time units, at most p steps each *)
      check "work <= p * (sigma + 1)" true
        (m.Metrics.work <= m.Metrics.p * (m.Metrics.sigma + 1));
      (* at least one step per time unit *)
      check "work >= sigma + 1" true (m.Metrics.work >= m.Metrics.sigma + 1);
      check "executions within work" true
        (m.Metrics.executions <= m.Metrics.work);
      check "redundant consistent" true
        (Metrics.redundant m = m.Metrics.executions - m.Metrics.t);
      check "effort consistent" true
        (Metrics.effort m = m.Metrics.work + m.Metrics.messages);
      check "per-proc sums" true
        (Array.fold_left ( + ) 0 m.Metrics.per_proc_work = m.Metrics.work))
    [
      ("trivial", "fair", 3, 9, 1);
      ("da-q3", "uniform-delay", 7, 21, 4);
      ("paran2", "harmonic", 5, 25, 3);
      ("padet", "lb-rand", 6, 12, 2);
      ("coord", "round-robin", 6, 30, 5);
    ]

let test_d_recorded_as_given () =
  let m = (Runner.run ~algo:"padet" ~adv:"fair" ~p:2 ~t:4 ~d:7 ()).Runner.metrics in
  check_int "d carried through" 7 m.Metrics.d

let suite =
  [
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "config pp" `Quick test_config_pp;
    Alcotest.test_case "metrics pp forms" `Quick test_metrics_pp_forms;
    Alcotest.test_case "relational invariants" `Quick
      test_relational_invariants;
    Alcotest.test_case "d recorded" `Quick test_d_recorded_as_given;
  ]
