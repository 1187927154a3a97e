(* The benchmark's own checks: the traced run's wrappers change nothing
   the engine computes, the median is right, the pins cover every cell,
   and BENCHMARK.json lists exactly the metrics the suite prints. *)

open Doall_sim
open Doall_core
open Benchsuite
module Json = Doall_obs.Export.Json

let () = Doall_quorum.Register.install ()

let cell ?(transport = Config.Ptp) algo adv =
  {
    Workloads.spec = Runner.spec ~seed:7 ~transport ~algo ~adv ~p:8 ~t:32 ~d:4 ();
    check = false;
  }

let advs =
  [
    ("max-delay", Config.Ptp);
    ("uniform-delay", Config.Ptp);
    ("flaky-restart", Config.Ptp);
    ("lb-rand", Config.Ptp);
    ("chan-ordered", Config.Channel Config.Detectable);
  ]

let fingerprint = Alcotest.(pair (pair int int) (pair int (pair int int)))
let fp m =
  let w, msgs, sigma, ex, h = Measure.fingerprint m in
  ((w, msgs), (sigma, (ex, h)))

(* Timed plus the adversary wrapper leave every metric as it is without
   them, and M counted from outside equals the engine's M. The DA(8)
   and AW(8) list searches dominate, so the cells run on two domains. *)
let test_transparency () =
  let cells =
    List.concat_map
      (fun (a : Runner.algo_spec) ->
        List.map (fun (adv, transport) -> cell ~transport a.algo_name adv) advs)
      (Runner.all_algorithms ())
  in
  let outcomes =
    Pool.with_pool ~jobs:2 (fun pool ->
        Pool.map pool
          (fun c -> (Runner.run_spec c.Workloads.spec, Layers.run_cell c))
          cells)
  in
  List.iter2
    (fun c ((plain : Runner.result), (traced, r, _)) ->
      let spec = c.Workloads.spec in
      let name = Runner.spec_name spec in
      Alcotest.check fingerprint name (fp plain.metrics) (fp traced);
      Alcotest.(check int)
        (name ^ ": M from outside")
        traced.Metrics.messages
        (Layers.expected_messages spec r))
    cells outcomes

let test_digest_stays_on () =
  let _, _, layer = Layers.run_cell (cell "paran1" "max-delay") in
  Alcotest.(check bool)
    "algo.fold.calls > 0" true
    (List.assoc "algo.fold.calls" layer > 0.0)

let test_layer_keys_catalogued () =
  let _, _, layer = Layers.run_cell (cell "paran1" "uniform-delay") in
  List.iter
    (fun (k, _) ->
      if k.[0] <> '_' then
        Alcotest.(check bool)
          (k ^ " is in the catalogue") true
          (List.exists (fun (m : Catalog.metric) -> m.name = k) Catalog.per_layer))
    (Layers.repetition [ layer ])

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_pins_cover_cells () =
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun seed ->
          List.iter
            (fun c ->
              let name = Runner.spec_name c.Workloads.spec in
              Alcotest.(check bool)
                (name ^ " is pinned") true
                (List.mem_assoc name Pins.table))
            (w.cells ~seed))
        [ 1; 2 ])
    Workloads.all

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let benchmark =
  lazy
    (match Json.of_string (read_file "../../BENCHMARK.json") with
     | Ok j -> j
     | Error e -> Alcotest.failf "BENCHMARK.json: %s" e)

let field k = function
  | Json.Obj kvs -> (
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> Alcotest.failf "missing key %S" k)
  | _ -> Alcotest.failf "not an object where %S was expected" k

let str = function Json.Str s -> s | _ -> Alcotest.fail "not a string"
let list = function Json.List l -> l | _ -> Alcotest.fail "not a list"

let number = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> Alcotest.fail "not a number"

(* Both lists hold the same metrics, in the same order, with the same
   unit and direction, and every name is valid. *)
let check_metrics section (catalog : Catalog.metric list) =
  let listed = list (field section (Lazy.force benchmark)) in
  Alcotest.(check (list string))
    (section ^ " names")
    (List.map (fun (m : Catalog.metric) -> m.name) catalog)
    (List.map (fun j -> str (field "name" j)) listed);
  List.iter2
    (fun (m : Catalog.metric) j ->
      Alcotest.(check bool) (m.name ^ " valid name") true (Catalog.valid_name m.name);
      Alcotest.(check bool)
        (m.name ^ " ends in _s iff in seconds")
        (m.unit = "s") (Catalog.in_seconds m.name);
      Alcotest.(check string) (m.name ^ " unit") m.unit (str (field "unit" j));
      Alcotest.(check string)
        (m.name ^ " better")
        (Catalog.better_to_string m.better)
        (str (field "better" j)))
    catalog listed;
  listed

let test_benchmark_json () =
  let e2e = check_metrics "end_to_end" Catalog.end_to_end in
  ignore (check_metrics "per_layer" Catalog.per_layer);
  let bounds = List.map (fun j -> (str (field "name" j), number (field "bound" j))) e2e in
  List.iter
    (fun (name, b) ->
      Alcotest.(check bool) (name ^ " bound in (0, 0.25]") true (b > 0.0 && b <= 0.25))
    bounds;
  let setup = List.assoc "setup_s" bounds in
  Alcotest.(check bool)
    "setup_s has the largest bound" true
    (List.for_all (fun (_, b) -> b <= setup) bounds);
  let workloads = list (field "workloads" (Lazy.force benchmark)) in
  List.iter
    (fun (w : Workloads.t) ->
      Alcotest.(check bool) (w.name ^ " valid name") true (Catalog.valid_name w.name))
    Workloads.all;
  Alcotest.(check (list (pair string string)))
    "workloads"
    (List.map (fun (w : Workloads.t) -> (w.name, w.why)) Workloads.all)
    (List.map (fun j -> (str (field "name" j), str (field "why" j))) workloads)

let () =
  Alcotest.run "benchsuite"
    [
      ( "layers",
        [
          Alcotest.test_case "wrappers are transparent" `Quick test_transparency;
          Alcotest.test_case "digest path stays on" `Quick test_digest_stays_on;
          Alcotest.test_case "layer keys catalogued" `Quick
            test_layer_keys_catalogued;
        ] );
      ("stats", [ Alcotest.test_case "median" `Quick test_median ]);
      ( "gate",
        [ Alcotest.test_case "pins cover every cell" `Quick test_pins_cover_cells ] );
      ( "BENCHMARK.json",
        [ Alcotest.test_case "matches the catalogue" `Quick test_benchmark_json ] );
    ]
