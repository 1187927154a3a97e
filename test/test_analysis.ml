open Doall_analysis

let check = Alcotest.(check bool)
let close ?(eps = 1e-9) a b = Float.abs (a -. b) < eps

let test_lower_bound_monotone_in_d () =
  let prev = ref 0.0 in
  List.iter
    (fun d ->
      let lb = Bounds.lower_bound ~p:64 ~t:256 ~d in
      check (Printf.sprintf "monotone at d=%d" d) true (lb >= !prev);
      prev := lb)
    [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]

let test_lower_bound_caps_at_quadratic_shape () =
  (* As d approaches t, the bound approaches p*t (up to constants):
     min(d,t) log_{d+1}(d+t) -> t * ~1. *)
  let p = 32 and t = 128 in
  let at_t = Bounds.lower_bound ~p ~t ~d:t in
  let quadratic = Bounds.oblivious_work ~p ~t in
  check "within constant of p*t" true
    (at_t > 0.5 *. quadratic && at_t <= 2.0 *. quadratic)

let test_lower_bound_at_least_t () =
  check "t term" true (Bounds.lower_bound ~p:1 ~t:100 ~d:1 >= 100.0)

let test_da_upper_decreasing_in_epsilon_for_large_p () =
  let a = Bounds.da_upper ~p:1024 ~t:4096 ~d:16 ~epsilon:0.5 in
  let b = Bounds.da_upper ~p:1024 ~t:4096 ~d:16 ~epsilon:0.25 in
  check "smaller epsilon, smaller bound" true (b < a)

let test_pa_upper_below_oblivious_when_d_small () =
  let p = 256 and t = 256 in
  check "subquadratic at d=1" true
    (Bounds.pa_upper ~p ~t ~d:1 < Bounds.oblivious_work ~p ~t)

let test_upper_bounds_dominate_lower () =
  (* Shape sanity: for matched parameters the PA upper bound (without
     constants) should be at least a constant fraction of the lower
     bound. *)
  List.iter
    (fun d ->
      let lb = Bounds.lower_bound ~p:64 ~t:64 ~d in
      let ub = Bounds.pa_upper ~p:64 ~t:64 ~d in
      check (Printf.sprintf "ub >= lb/4 at d=%d" d) true (ub >= lb /. 4.0))
    [ 1; 4; 16; 64 ]

let test_bounds_read_d0_as_d1 () =
  (* the engine runs d = 0 as d = 1; the bounds must agree, finitely *)
  let p = 4 and t = 16 in
  List.iter
    (fun (name, f) ->
      let at0 = f 0 and at1 = f 1 in
      check (name ^ " finite at d=0") true (Float.is_finite at0);
      check (name ^ " d=0 = d=1") true (at0 = at1))
    [
      ("lower_bound", fun d -> Bounds.lower_bound ~p ~t ~d);
      ("pa_upper", fun d -> Bounds.pa_upper ~p ~t ~d);
      ("da_upper", fun d -> Bounds.da_upper ~p ~t ~d ~epsilon:0.5);
    ]

let test_epsilon_of_q_decreasing () =
  let prev = ref infinity in
  List.iter
    (fun q ->
      let e = Bounds.epsilon_of_q ~q in
      check (Printf.sprintf "eps(q=%d) decreasing" q) true (e <= !prev);
      prev := e)
    [ 4; 8; 16; 64; 256 ]

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  check "mean" true (close s.Stats.mean 2.5);
  check "median" true (close s.Stats.median 2.5);
  check "min" true (close s.Stats.min 1.0);
  check "max" true (close s.Stats.max 4.0);
  check "count" true (s.Stats.count = 4);
  check "stddev" true (close s.Stats.stddev (sqrt (5.0 /. 3.0)))

let test_stats_single () =
  let s = Stats.summarize [ 7.0 ] in
  check "stddev 0" true (close s.Stats.stddev 0.0);
  check "median" true (close s.Stats.median 7.0)

let test_stats_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty")
    (fun () -> ignore (Stats.summarize []))

let test_median_odd () =
  check "odd median" true (close (Stats.median [ 9.0; 1.0; 5.0 ]) 5.0)

let test_linear_fit () =
  (* log y = 2 log x + 1, fitted on the log-log scale *)
  let fit =
    Stats.loglog_fit
      (List.map (fun (x, y) -> (exp x, exp y))
         [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ])
  in
  check "slope" true (close fit.Stats.slope 2.0);
  check "intercept" true (close fit.Stats.intercept 1.0);
  check "r2 perfect" true (close fit.Stats.r2 1.0)

let test_loglog_fit_recovers_exponent () =
  let pairs =
    List.map (fun x -> (float_of_int x, 3.0 *. (float_of_int x ** 1.7)))
      [ 1; 2; 4; 8; 16; 32 ]
  in
  let fit = Stats.loglog_fit pairs in
  check "exponent ~1.7" true (Float.abs (fit.Stats.slope -. 1.7) < 0.01)

let test_loglog_drops_nonpositive () =
  let fit =
    Stats.loglog_fit [ (0.0, 5.0); (-1.0, 2.0); (1.0, 2.0); (2.0, 4.0); (4.0, 8.0) ]
  in
  check "slope 1" true (Float.abs (fit.Stats.slope -. 1.0) < 1e-6)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let test_table_render () =
  let tbl = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Table.add_row tbl [ "1"; "2" ];
  Table.add_row tbl [ "10"; "200" ];
  Table.add_note tbl "a note";
  let s = Table.render tbl in
  check "has title" true (String.length s > 0);
  check "contains note" true (contains s "a note" && contains s "200")

let test_table_row_arity () =
  let tbl = Table.create ~title:"x" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row tbl [ "only-one" ])

let test_table_csv () =
  let tbl = Table.create ~title:"csv" ~columns:[ "x"; "y" ] in
  Table.add_row tbl [ "a,b"; "plain" ];
  let path = Filename.temp_file "table" ".csv" in
  Table.write_csv tbl ~path;
  let csv = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  check "escapes commas" true (contains csv "\"a,b\"")

let test_lemma32_ratio_exact () =
  (* d=1, k=u/2: the ratio telescopes to (u-k)/u = 1/2 exactly. *)
  check "d=1 exact half" true
    (Float.abs (Lemma32.ratio ~u:100 ~d:1 -. 0.5) < 1e-12);
  (* d large: ratio -> e^{-d/(d+1)} -> 1/e *)
  check "d=100, u=10000 near 1/e" true
    (Float.abs (Lemma32.ratio ~u:10000 ~d:100 -. (1.0 /. Float.exp 1.0))
     < 0.01)

let test_lemma32_sandwich () =
  (* the proof's two sandwich expressions around the ratio, written out
     here so points past first_counterexample's test-time range are
     checked too *)
  let sandwich ~u ~d =
    let k = float_of_int (u / (d + 1))
    and d = float_of_int d
    and u = float_of_int u in
    ((1.0 -. (d /. (u -. k +. 1.0))) ** k, (1.0 -. (d /. u)) ** k)
  in
  List.iter
    (fun (u, d) ->
      let lower, upper = sandwich ~u ~d in
      let r = Lemma32.ratio ~u ~d in
      check
        (Printf.sprintf "sandwich at u=%d d=%d" u d)
        true
        (lower <= r +. 1e-9 && r <= upper +. 1e-9))
    [ (10, 2); (50, 7); (100, 10); (1000, 31); (12345, 111) ]

let test_lemma32_holds_in_range () =
  Alcotest.(check (option (pair int int)))
    "no counterexample up to 1500" None
    (Lemma32.first_counterexample ~u_max:1500)

let test_lemma32_validation () =
  Alcotest.check_raises "bad d" (Invalid_argument "Lemma32: d >= 1")
    (fun () -> ignore (Lemma32.ratio ~u:10 ~d:0))

let test_fit_recovers_planted_model () =
  (* Plant data from a known shape (3.7x the lower bound) and confirm the
     ranking recovers it with the right constant. *)
  let p = 32 and t = 64 in
  let points =
    List.map
      (fun d -> (d, 3.7 *. Bounds.lower_bound ~p ~t ~d))
      [ 1; 2; 4; 8; 16; 32; 64 ]
  in
  let best = Fit.best ~p ~t points in
  check "planted model wins" true
    (best.Fit.model.Fit.model_name = "lower bound");
  check "constant recovered" true (Float.abs (best.Fit.constant -. 3.7) < 1e-6);
  check "perfect r2" true (best.Fit.r2 > 0.999999)

let test_fit_flat_data () =
  let p = 8 and t = 16 in
  let points = [ (1, 128.0); (4, 128.0); (16, 128.0) ] in
  let best = Fit.best ~p ~t points in
  check "a constant shape wins on flat data" true
    (best.Fit.model.Fit.model_name = "t (delay-free)"
     || best.Fit.model.Fit.model_name = "quadratic p*t")

let test_fit_rank_sorted () =
  let p = 16 and t = 32 in
  let points = List.map (fun d -> (d, float_of_int (t + (p * d)))) [ 1; 4; 16 ] in
  let ranked = Fit.rank ~p ~t points in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Fit.r2 >= b.Fit.r2 && sorted rest
    | _ -> true
  in
  check "sorted by r2" true (sorted ranked);
  check "all six candidates present" true (List.length ranked = 6)

let test_fit_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Fit.fit_one: no points")
    (fun () -> ignore (Fit.rank ~p:2 ~t:2 []))

let test_plot_renders_points () =
  let s =
    Plot.render ~width:20 ~height:5
      [ { Plot.label = "w"; points = [ (0.0, 0.0); (10.0, 100.0) ] } ]
  in
  check "non-empty" true (String.length s > 0);
  check "contains mark" true (contains s "*");
  check "contains legend" true (contains s "w");
  check "axis max labelled" true (contains s "100")

let test_plot_two_series_marks () =
  let s =
    Plot.render
      [
        { Plot.label = "a"; points = [ (1.0, 1.0) ] };
        { Plot.label = "b"; points = [ (2.0, 2.0) ] };
      ]
  in
  check "first mark" true (contains s "*");
  check "second mark" true (contains s "+")

let test_plot_log_drops_nonpositive () =
  let s =
    Plot.render ~logx:true ~logy:true
      [ { Plot.label = "only-bad"; points = [ (0.0, 1.0); (-3.0, 2.0) ] } ]
  in
  check "empty when nothing survives" true (s = "")

let test_plot_corner_positions () =
  (* min point lands bottom-left, max point top-right *)
  let s =
    Plot.render ~width:10 ~height:3
      [ { Plot.label = "c"; points = [ (0.0, 0.0); (9.0, 2.0) ] } ]
  in
  let lines = String.split_on_char '\n' s in
  let grid_rows =
    List.filter (fun l -> contains l "|") lines
  in
  (match grid_rows with
   | top :: _ ->
     check "max at top-right" true (String.length top > 0 && contains top "*")
   | [] -> Alcotest.fail "no grid");
  check "mark count ok" true (List.length grid_rows = 3)

let test_mark_cycle () =
  let series i =
    { Plot.label = Printf.sprintf "s%d" i; points = [ (float i, float i) ] }
  in
  let s = Plot.render (List.init 9 series) in
  check "cycles" true (contains s "* s0" && contains s "* s8")

let test_cells () =
  check "int" true (Table.cell_int 42 = "42");
  check "float" true (Table.cell_float ~decimals:2 3.14159 = "3.14");
  check "ratio" true (Table.cell_ratio 3.0 2.0 = "1.50");
  check "ratio div0" true (Table.cell_ratio 3.0 0.0 = "-")

let suite =
  [
    Alcotest.test_case "lower bound monotone in d" `Quick
      test_lower_bound_monotone_in_d;
    Alcotest.test_case "lower bound ~ p*t at d=t" `Quick
      test_lower_bound_caps_at_quadratic_shape;
    Alcotest.test_case "lower bound >= t" `Quick test_lower_bound_at_least_t;
    Alcotest.test_case "DA bound vs epsilon" `Quick
      test_da_upper_decreasing_in_epsilon_for_large_p;
    Alcotest.test_case "PA bound subquadratic" `Quick
      test_pa_upper_below_oblivious_when_d_small;
    Alcotest.test_case "upper dominates lower (shape)" `Quick
      test_upper_bounds_dominate_lower;
    Alcotest.test_case "bounds read d=0 as d=1" `Quick
      test_bounds_read_d0_as_d1;
    Alcotest.test_case "epsilon_of_q decreasing" `Quick
      test_epsilon_of_q_decreasing;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "stats single value" `Quick test_stats_single;
    Alcotest.test_case "stats empty rejected" `Quick test_stats_empty;
    Alcotest.test_case "median odd" `Quick test_median_odd;
    Alcotest.test_case "linear fit" `Quick test_linear_fit;
    Alcotest.test_case "loglog fit exponent" `Quick
      test_loglog_fit_recovers_exponent;
    Alcotest.test_case "loglog drops nonpositive" `Quick
      test_loglog_drops_nonpositive;
    Alcotest.test_case "Lemma 3.2: exact values" `Quick
      test_lemma32_ratio_exact;
    Alcotest.test_case "Lemma 3.2: sandwich" `Quick test_lemma32_sandwich;
    Alcotest.test_case "Lemma 3.2: holds in range" `Quick
      test_lemma32_holds_in_range;
    Alcotest.test_case "Lemma 3.2: validation" `Quick test_lemma32_validation;
    Alcotest.test_case "fit recovers planted model" `Quick
      test_fit_recovers_planted_model;
    Alcotest.test_case "fit on flat data" `Quick test_fit_flat_data;
    Alcotest.test_case "fit rank sorted" `Quick test_fit_rank_sorted;
    Alcotest.test_case "fit validation" `Quick test_fit_validation;
    Alcotest.test_case "plot renders points" `Quick test_plot_renders_points;
    Alcotest.test_case "plot series marks" `Quick test_plot_two_series_marks;
    Alcotest.test_case "plot log drops nonpositive" `Quick
      test_plot_log_drops_nonpositive;
    Alcotest.test_case "plot corner positions" `Quick
      test_plot_corner_positions;
    Alcotest.test_case "plot mark cycle" `Quick test_mark_cycle;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table row arity" `Quick test_table_row_arity;
    Alcotest.test_case "table csv escaping" `Quick test_table_csv;
    Alcotest.test_case "cell formatting" `Quick test_cells;
  ]
