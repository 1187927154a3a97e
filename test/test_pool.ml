(* The domain pool and the parallel grid runner.

   The load-bearing property is bit-determinism: Runner.run_grid must
   return byte-identical results for every jobs count, because parallel
   timings are only honest if the parallel arm computes the same thing
   as the sequential one, and the golden pins only protect the
   sequential path. *)

open Doall_sim
open Doall_core

(* Deterministic busy-work with data-dependent duration, so tasks finish
   out of submission order under any multi-domain schedule. *)
let churn seed =
  let x = ref seed in
  for _ = 1 to 1_000 + (seed * 7919 mod 9_000) do
    x := (!x * 1_103_515_245) + 12_345
  done;
  !x

let test_map_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 200 Fun.id in
      let expected = List.map churn xs in
      for _ = 1 to 5 do
        Alcotest.(check (list int))
          "map preserves submission order" expected
          (Pool.map pool churn xs)
      done)

let test_map_sizes () =
  Pool.with_pool ~jobs:3 (fun pool ->
      List.iter
        (fun n ->
          let xs = List.init n Fun.id in
          Alcotest.(check (list int))
            (Printf.sprintf "size %d" n)
            (List.map succ xs)
            (Pool.map pool succ xs))
        [ 0; 1; 2; 3; 7; 64 ])

let test_jobs_one_inline () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs clamped" 1 (Pool.jobs pool);
      Alcotest.(check (list int))
        "inline path" [ 2; 3; 4 ]
        (Pool.map pool succ [ 1; 2; 3 ]))

exception Boom of int

let test_exception_propagation () =
  (* The lowest-indexed failure wins, deterministically, at every jobs
     count — and the pool survives the failed batch. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let f i = if i mod 10 = 3 then raise (Boom i) else churn i in
          let got =
            try
              ignore (Pool.map pool f (List.init 100 Fun.id));
              None
            with Boom i -> Some i
          in
          Alcotest.(check (option int))
            (Printf.sprintf "first failure by index, jobs=%d" jobs)
            (Some 3) got;
          Alcotest.(check (list int))
            "pool usable after a failed batch" [ 1; 2 ]
            (Pool.map pool succ [ 0; 1 ])))
    [ 1; 2; 4 ]

let test_shutdown () =
  let pool = Pool.create ~jobs:2 () in
  ignore (Pool.map pool succ [ 1; 2; 3 ]);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool succ [ 1 ]))

(* A mixed grid: deterministic and randomized algorithms, delay-bound
   and randomized adversaries, several seeds. *)
let mixed_specs =
  Runner.grid
    ~seeds:[ 0; 1; 2 ]
    ~algos:[ "trivial"; "da-q4"; "paran1"; "paran2"; "padet" ]
    ~advs:[ "fair"; "max-delay"; "lb-rand" ]
    ~points:[ (8, 32, 3); (5, 40, 7) ]
    ()

let result_key (r : Runner.result) =
  ( (r.Runner.algo, r.Runner.adv, r.Runner.seed),
    ( r.Runner.metrics.Metrics.work,
      r.Runner.metrics.Metrics.messages,
      r.Runner.metrics.Metrics.sigma,
      r.Runner.metrics.Metrics.executions,
      Array.to_list r.Runner.metrics.Metrics.per_proc_work ) )

let test_grid_determinism () =
  (* run_grid at jobs=1/2/4 vs a sequential Runner.run fold: identical
     work, messages, sigma, executions and per-processor work. *)
  let sequential =
    List.map
      (fun (s : Runner.run_spec) ->
        Runner.run ~seed:s.Runner.seed ~algo:s.Runner.spec_algo
          ~adv:s.Runner.spec_adv ~p:s.Runner.p ~t:s.Runner.t ~d:s.Runner.d ())
      mixed_specs
  in
  let expected = List.map result_key sequential in
  List.iter
    (fun jobs ->
      let got = List.map result_key (Runner.run_grid ~jobs mixed_specs) in
      if got <> expected then
        Alcotest.failf "grid results differ from sequential at jobs=%d" jobs)
    [ 1; 2; 4 ]

let test_grid_pool_reuse () =
  (* One pool across several grids, including interleaved shapes. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let expected = List.map result_key (Runner.run_grid ~jobs:1 mixed_specs) in
      for _ = 1 to 3 do
        let got =
          List.map result_key (Runner.run_grid ~pool mixed_specs)
        in
        if got <> expected then Alcotest.fail "pooled grid diverged"
      done)

let test_grid_incomplete () =
  (* A capped run must raise with the offending cells, not return a
     silent partial result — at any jobs count. *)
  let specs =
    Runner.grid ~seeds:[ 0 ] ~algos:[ "paran1" ] ~advs:[ "max-delay" ]
      ~points:[ (8, 64, 4) ] ()
  in
  List.iter
    (fun jobs ->
      match Runner.run_grid ~jobs ~max_time:1 specs with
      | _ -> Alcotest.fail "expected Grid_incomplete"
      | exception Runner.Grid_incomplete [ s ] ->
        Alcotest.(check string)
          "failing cell named" "paran1/max-delay/p8/t64/d4/seed0"
          (Runner.spec_name s)
      | exception Runner.Grid_incomplete _ ->
        Alcotest.fail "expected exactly one capped cell")
    [ 1; 3 ]

let test_grid_unknown_name () =
  (* Registry validation happens in the submitting domain, before any
     fan-out. *)
  match
    Runner.run_grid [ Runner.spec ~algo:"nope" ~adv:"fair" ~p:2 ~t:4 ~d:1 () ]
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
    if not (String.length msg >= 26
            && String.sub msg 0 26 = "unknown algorithm \"nope\" (") then
      Alcotest.failf "unexpected message: %s" msg

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_order;
    Alcotest.test_case "map sizes incl. empty" `Quick test_map_sizes;
    Alcotest.test_case "jobs=1 runs inline" `Quick test_jobs_one_inline;
    Alcotest.test_case "deterministic exceptions" `Quick
      test_exception_propagation;
    Alcotest.test_case "shutdown semantics" `Quick test_shutdown;
    Alcotest.test_case "grid determinism across jobs" `Slow
      test_grid_determinism;
    Alcotest.test_case "grid pool reuse" `Slow test_grid_pool_reuse;
    Alcotest.test_case "Grid_incomplete on cap" `Quick test_grid_incomplete;
    Alcotest.test_case "unknown name fails fast" `Quick test_grid_unknown_name;
  ]
