(* The observability subsystem: probe instruments, the determinism
   contract (probes must not perturb metrics, and snapshots must be
   identical at every jobs count), engine instrument consistency against
   Metrics.t, and line-by-line JSONL validation of the exporters. *)

open Doall_sim
open Doall_core
module Export = Doall_obs.Export

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Probe instruments.                                                  *)

let test_counter () =
  let pr = Probe.create () in
  let c = Probe.counter pr "c" in
  Probe.incr c;
  Probe.add c 41;
  check_int "value" 42 (Probe.counter_value c);
  check "same name, same instrument" true
    (Probe.counter_value (Probe.counter pr "c") = 42)

let test_disabled_probe_records_nothing () =
  let pr = Probe.create ~enabled:false () in
  check "disabled" true (not (Probe.enabled pr));
  let c = Probe.counter pr "c" in
  let g = Probe.gauge pr "g" in
  let h = Probe.histogram pr "h" in
  let v = Probe.vector pr "v" ~len:3 in
  let s = Probe.series pr "s" in
  Probe.incr c;
  Probe.set g 7;
  Probe.observe h 5;
  Probe.observe_n h 5 10;
  Probe.vincr v 1;
  Probe.sample s ~time:0 3;
  let snap = Probe.snapshot pr in
  check_int "counter zero" 0 (List.assoc "c" snap.Probe.counters);
  check "gauge zero" true (List.assoc "g" snap.Probe.gauges = (0, 0));
  let hs = List.assoc "h" snap.Probe.histograms in
  check_int "histogram empty" 0 hs.Probe.count;
  check "vector zero" true (List.assoc "v" snap.Probe.vectors = [| 0; 0; 0 |]);
  check "series empty" true (List.assoc "s" snap.Probe.series = [||])

let test_gauge_last_and_max () =
  let pr = Probe.create () in
  let g = Probe.gauge pr "g" in
  Probe.set g 5;
  Probe.set g 9;
  Probe.set g 2;
  let snap = Probe.snapshot pr in
  check "last=2 max=9" true (List.assoc "g" snap.Probe.gauges = (2, 9))

let test_histogram_buckets () =
  (* bucket 0 holds v <= 0; bucket i >= 1 holds [2^(i-1), 2^i - 1] *)
  let pr = Probe.create () in
  let h = Probe.histogram pr "h" in
  List.iter (Probe.observe h) [ 0; 1; 2; 3; 4; 7; 8; 1023; 1024 ];
  let hs = List.assoc "h" (Probe.snapshot pr).Probe.histograms in
  check_int "count" 9 hs.Probe.count;
  check_int "sum" (0 + 1 + 2 + 3 + 4 + 7 + 8 + 1023 + 1024) hs.Probe.sum;
  check_int "max" 1024 hs.Probe.max;
  let n_of i = try List.assoc i hs.Probe.buckets with Not_found -> 0 in
  check_int "bucket 0: v=0" 1 (n_of 0);
  check_int "bucket 1: v=1" 1 (n_of 1);
  check_int "bucket 2: v=2,3" 2 (n_of 2);
  check_int "bucket 3: v=4..7" 2 (n_of 3);
  check_int "bucket 4: v=8" 1 (n_of 4);
  check_int "bucket 10: v=1023" 1 (n_of 10);
  check_int "bucket 11: v=1024" 1 (n_of 11);
  check "bounds bucket 3" true (Probe.bucket_bounds 3 = (4, 7));
  check "bounds bucket 0" true (Probe.bucket_bounds 0 = (0, 0))

let test_observe_n_equals_repeated_observe () =
  let pr = Probe.create () in
  let a = Probe.histogram pr "a" and b = Probe.histogram pr "b" in
  List.iter
    (fun (v, n) ->
      Probe.observe_n a v n;
      for _ = 1 to n do
        Probe.observe b v
      done)
    [ (3, 4); (17, 1); (0, 2); (1500, 3); (3, 0) ];
  let snap = Probe.snapshot pr in
  let ha = List.assoc "a" snap.Probe.histograms in
  let hb = List.assoc "b" snap.Probe.histograms in
  check "observe_n = n x observe" true (ha = hb)

let test_vector () =
  let pr = Probe.create () in
  let v = Probe.vector pr "v" ~len:4 in
  Probe.vincr v 0;
  for _ = 1 to 5 do
    Probe.vincr v 3
  done;
  check "values" true
    (List.assoc "v" (Probe.snapshot pr).Probe.vectors = [| 1; 0; 0; 5 |]);
  check "len mismatch rejected" true
    (try
       ignore (Probe.vector pr "v" ~len:5);
       false
     with Invalid_argument _ -> true)

let test_series_and_snapshot_isolation () =
  let pr = Probe.create () in
  let s = Probe.series pr "s" in
  for i = 0 to 99 do
    Probe.sample s ~time:i (i * i)
  done;
  let snap = Probe.snapshot pr in
  let pts = List.assoc "s" snap.Probe.series in
  check_int "100 samples" 100 (Array.length pts);
  check "in order" true (pts.(7) = (7, 49));
  (* a snapshot is a deep copy: later records must not leak into it *)
  Probe.sample s ~time:100 1;
  check_int "old snapshot unchanged" 100
    (Array.length (List.assoc "s" snap.Probe.series))

let test_percentile () =
  let pr = Probe.create () in
  let h = Probe.histogram pr "h" in
  let snap () = List.assoc "h" (Probe.snapshot pr).Probe.histograms in
  check "empty histogram" true (Probe.percentile (snap ()) 0.5 = (0, 0));
  (* 9 ones, 1 seventeen: p50/p90 sit in the ones, p99 in bucket 5 *)
  Probe.observe_n h 1 9;
  Probe.observe h 17;
  let hs = snap () in
  check "p50 = ones bucket" true (Probe.percentile hs 0.50 = (1, 1));
  check "p90 = ones bucket" true (Probe.percentile hs 0.90 = (1, 1));
  (* bucket 5 spans [16, 31]; hi is capped at the observed max *)
  check "p99 capped at max" true (Probe.percentile hs 0.99 = (16, 17));
  check "q=1 is the max bucket" true (Probe.percentile hs 1.0 = (16, 17));
  (* out-of-range q clamps rather than raising *)
  check "q clamped low" true (Probe.percentile hs (-3.0) = (1, 1));
  check "q clamped high" true (Probe.percentile hs 9.0 = (16, 17))

(* ------------------------------------------------------------------ *)
(* Engine instrumentation consistency vs Metrics.t.                    *)

let probed_run ~algo ~adv ~p ~t ~d =
  let probe = Probe.create () in
  let r = Runner.run ~seed:3 ~probe ~algo ~adv ~p ~t ~d () in
  (r, Probe.snapshot probe)

let test_engine_instruments_match_metrics () =
  List.iter
    (fun (algo, adv) ->
      let p = 8 and t = 48 and d = 4 in
      let r, snap = probed_run ~algo ~adv ~p ~t ~d in
      let m = r.Runner.metrics in
      let c name = List.assoc name snap.Probe.counters in
      check_int
        (algo ^ ": fresh + redundant = executions")
        m.Metrics.executions
        (c "engine.fresh_executions" + c "engine.redundant_executions");
      check_int
        (algo ^ ": redundant counter = Metrics.redundant")
        (Metrics.redundant m)
        (c "engine.redundant_executions");
      check_int (algo ^ ": sends = messages") m.Metrics.messages
        (c "net.sends");
      let lat = List.assoc "net.delivery_latency" snap.Probe.histograms in
      check_int (algo ^ ": one latency sample per send") m.Metrics.messages
        lat.Probe.count;
      check (algo ^ ": deltas within (0, max 1 d]") true
        (lat.Probe.count = 0 || (lat.Probe.max <= max 1 d && lat.Probe.sum > 0));
      check (algo ^ ": deliveries <= sends") true
        (c "net.deliveries" <= c "net.sends");
      check_int
        (algo ^ ": delayed vector spans p")
        p
        (Array.length (List.assoc "proc.delayed_steps" snap.Probe.vectors));
      let series = List.assoc "engine.fresh_executions" snap.Probe.series in
      check (algo ^ ": one sample per tick") true
        (Array.length series = m.Metrics.sigma + 1);
      check (algo ^ ": final fresh sample = t (completed)") true
        ((not m.Metrics.completed)
        || snd series.(Array.length series - 1) = t))
    [ ("paran1", "max-delay"); ("da-q4", "fair"); ("padet", "uniform-delay") ]

(* ------------------------------------------------------------------ *)
(* Determinism: probes on/off and jobs=1/2/4 must not move a bit.      *)

let det_specs =
  Runner.grid
    ~seeds:[ 0; 1 ]
    ~algos:[ "paran1"; "da-q4" ]
    ~advs:[ "max-delay"; "fair" ]
    ~points:[ (6, 24, 3) ]
    ()

(* Everything except wall_s (machine noise) and obs (checked apart). *)
let comparable (r : Runner.result) =
  (r.Runner.metrics, r.Runner.algo, r.Runner.adv, r.Runner.seed)

let test_grid_deterministic_across_jobs_and_probes () =
  let base = Runner.run_grid ~jobs:1 ~probes:false det_specs in
  let base_snaps = Runner.run_grid ~jobs:1 ~probes:true det_specs in
  (* probes on vs off: Metrics.t bit-identical, down to per_proc_work *)
  List.iter2
    (fun (a : Runner.result) (b : Runner.result) ->
      check "metrics identical probes on/off" true
        (comparable a = comparable b);
      check "per_proc_work identical" true
        (a.Runner.metrics.Metrics.per_proc_work
        = b.Runner.metrics.Metrics.per_proc_work);
      check "obs off -> None" true (a.Runner.obs = None);
      check "obs on -> Some" true (b.Runner.obs <> None))
    base base_snaps;
  (* jobs=2 and jobs=4: results and probe snapshots bit-identical *)
  List.iter
    (fun jobs ->
      let rs = Runner.run_grid ~jobs ~probes:true det_specs in
      List.iter2
        (fun (a : Runner.result) (b : Runner.result) ->
          check
            (Printf.sprintf "metrics identical at jobs=%d" jobs)
            true
            (comparable a = comparable b);
          check
            (Printf.sprintf "snapshots identical at jobs=%d" jobs)
            true
            (a.Runner.obs = b.Runner.obs))
        base_snaps rs)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser, just enough to validate exporter output.     *)

type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JList of json list
  | JObj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true
                                     | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char b '"'; advance ()
         | Some '\\' -> Buffer.add_char b '\\'; advance ()
         | Some '/' -> Buffer.add_char b '/'; advance ()
         | Some 'n' -> Buffer.add_char b '\n'; advance ()
         | Some 't' -> Buffer.add_char b '\t'; advance ()
         | Some 'r' -> Buffer.add_char b '\r'; advance ()
         | Some 'b' -> Buffer.add_char b '\b'; advance ()
         | Some 'f' -> Buffer.add_char b '\012'; advance ()
         | Some 'u' ->
           advance ();
           if !pos + 4 > n then fail "bad \\u escape";
           let code = int_of_string ("0x" ^ String.sub s !pos 4) in
           pos := !pos + 4;
           (* good enough for the exporter's output: BMP only *)
           if code < 128 then Buffer.add_char b (Char.chr code)
           else Buffer.add_string b (Printf.sprintf "U+%04X" code)
         | _ -> fail "bad escape");
        go ()
      | Some c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false)
    do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> JNum f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> JStr (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); JObj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((key, v) :: acc)
          | Some '}' -> advance (); List.rev ((key, v) :: acc)
          | _ -> fail "expected , or }"
        in
        JObj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); JList [] end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elems (v :: acc)
          | Some ']' -> advance (); List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        JList (elems [])
      end
    | Some 't' -> literal "true" (JBool true)
    | Some 'f' -> literal "false" (JBool false)
    | Some 'n' -> literal "null" JNull
    | Some _ -> parse_number ()
    | None -> fail "empty input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Exporters: every line parses, carries v/kind, and counts add up.    *)

let with_temp_file f =
  let path = Filename.temp_file "doall_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let assoc_exn key = function
  | JObj fields -> List.assoc key fields
  | _ -> raise Not_found

let validate_lines lines =
  List.map
    (fun line ->
      let j = parse_json line in
      check "schema version" true (assoc_exn "v" j = JNum 1.);
      match assoc_exn "kind" j with
      | JStr kind -> (kind, j)
      | _ -> Alcotest.fail "kind is not a string")
    lines

let test_export_run_jsonl () =
  let probe = Probe.create () in
  let r =
    Runner.run ~seed:3 ~probe ~profile:true ~algo:"paran1" ~adv:"max-delay"
      ~p:6 ~t:24 ~d:3 ()
  in
  let snap = Probe.snapshot probe in
  let kinds =
    with_temp_file (fun path ->
        let oc = open_out path in
        Export.write_run oc
          ~meta:[ ("algo", Export.Json.Str "paran1") ]
          ~snapshot:snap ?spans:r.Runner.spans r.Runner.metrics;
        close_out oc;
        validate_lines (read_lines path))
  in
  let count k = List.length (List.filter (fun (k', _) -> k' = k) kinds) in
  check_int "one run header" 1 (count "run");
  check_int "one metrics line" 1 (count "metrics");
  check_int "one phases line" 1 (count "phases");
  (* the phases line lists the engine catalogue with counts *)
  let _, phases_line = List.find (fun (k, _) -> k = "phases") kinds in
  (match assoc_exn "phases" phases_line with
   | JList phases ->
     let names =
       List.map
         (fun ph ->
           match assoc_exn "name" ph with
           | JStr s -> s
           | _ -> Alcotest.fail "phase name not a string")
         phases
     in
     check "engine phase catalogue" true
       (List.sort compare names
       = [ "adversary"; "algo_step"; "bcast_maint"; "deliver"; "oracle" ]);
     List.iter
       (fun ph ->
         check "phase has wall_s" true
           (match assoc_exn "wall_s" ph with JNum _ -> true | _ -> false);
         check "phase has count" true
           (match assoc_exn "count" ph with JNum _ -> true | _ -> false))
       phases
   | _ -> Alcotest.fail "phases field not a list");
  (* every histogram line carries exact percentile intervals *)
  List.iter
    (fun (k, j) ->
      if k = "histogram" then
        List.iter
          (fun q ->
            check (q ^ " is an interval") true
              (match assoc_exn q j with
               | JList [ JNum lo; JNum hi ] -> lo <= hi
               | _ -> false))
          [ "p50"; "p90"; "p99" ])
    kinds;
  check_int "counter lines" (List.length snap.Probe.counters) (count "counter");
  check_int "gauge lines" (List.length snap.Probe.gauges) (count "gauge");
  check_int "histogram lines"
    (List.length snap.Probe.histograms)
    (count "histogram");
  check_int "vector lines" (List.length snap.Probe.vectors) (count "vector");
  check_int "series lines" (List.length snap.Probe.series) (count "series");
  (* the metrics line round-trips the interesting integers *)
  let _, metrics_line = List.find (fun (k, _) -> k = "metrics") kinds in
  check "work field" true
    (assoc_exn "work" metrics_line
    = JNum (float_of_int r.Runner.metrics.Metrics.work));
  check "per_proc_work field" true
    (match assoc_exn "per_proc_work" metrics_line with
     | JList l -> List.length l = 6
     | _ -> false)

let test_export_trace_jsonl () =
  let r, trace =
    Runner.run_traced ~seed:1 ~algo:"da-q4" ~adv:"fair" ~p:4 ~t:12 ~d:2 ()
  in
  let kinds =
    with_temp_file (fun path ->
        let oc = open_out path in
        Export.write_trace oc ~meta:[] r.Runner.metrics trace;
        close_out oc;
        validate_lines (read_lines path))
  in
  let count k = List.length (List.filter (fun (k', _) -> k' = k) kinds) in
  check_int "one trace header" 1 (count "trace");
  check_int "one metrics line" 1 (count "metrics");
  check_int "one line per event" (Trace.length trace) (count "event");
  let _, header = List.find (fun (k, _) -> k = "trace") kinds in
  check "header event count" true
    (assoc_exn "events" header = JNum (float_of_int (Trace.length trace)))

let test_json_escaping_and_floats () =
  let open Export.Json in
  check "escapes" true
    (to_string (Str "a\"b\\c\nd") = {|"a\"b\\c\nd"|});
  check "control chars" true (to_string (Str "\001") = {|"\u0001"|});
  check "nan -> null" true (to_string (Float Float.nan) = "null");
  check "inf -> null" true (to_string (Float Float.infinity) = "null");
  check "int float keeps point" true
    (String.contains (to_string (Float 2.0)) '.');
  check "compact obj" true
    (to_string (Obj [ ("a", Int 1); ("b", List [ Bool true; Null ]) ])
    = {|{"a":1,"b":[true,null]}|});
  (* and the parser above accepts everything the printer emits *)
  let v =
    Obj
      [
        ("s", Str "x\"\n\tzz\\");
        ("f", Float 3.25);
        ("l", List [ Int 1; Null; Bool false ]);
      ]
  in
  check "printer output parses" true
    (match parse_json (to_string v) with
     | JObj [ ("s", JStr "x\"\n\tzz\\"); ("f", JNum 3.25); ("l", _) ] -> true
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* Progress: force-rendered output has the k/n shape; inactive
   otherwise.                                                          *)

let test_progress_rendering () =
  let path = Filename.temp_file "doall_progress" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      let pr =
        Doall_obs.Progress.create ~out:oc ~force:true ~total:3 ~label:"grid" ()
      in
      Doall_obs.Progress.tick pr;
      Doall_obs.Progress.tick pr;
      Doall_obs.Progress.tick pr;
      Doall_obs.Progress.finish pr;
      close_out oc;
      let text =
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check "mentions label" true
        (try ignore (Str.search_forward (Str.regexp_string "grid") text 0); true
         with Not_found -> false);
      check "mentions 3/3" true
        (try ignore (Str.search_forward (Str.regexp_string "3/3") text 0); true
         with Not_found -> false);
      (* a non-tty, non-forced meter writes nothing *)
      let oc2 = open_out path in
      let quiet =
        Doall_obs.Progress.create ~out:oc2 ~total:2 ~label:"quiet" ()
      in
      Doall_obs.Progress.tick quiet;
      Doall_obs.Progress.finish quiet;
      close_out oc2;
      check_int "silent when not a tty" 0
        (let ic = open_in path in
         Fun.protect
           ~finally:(fun () -> close_in ic)
           (fun () -> in_channel_length ic)))

(* Overwrite hygiene, through a real pipe: every carriage return must
   be chased by a clear-to-EOL (CSI K) so a shrinking render ("ETA
   1m40s" -> "ETA 9s") cannot leave the old line's tail on screen, and
   no render may rely on trailing-space padding instead. *)
let test_progress_erases_line () =
  let r, w = Unix.pipe () in
  let wc = Unix.out_channel_of_descr w in
  let pr = Doall_obs.Progress.create ~out:wc ~force:true ~total:3 ~label:"pipe" () in
  Doall_obs.Progress.tick pr;
  (* space the renders past the 0.05s throttle so both draw *)
  Unix.sleepf 0.06;
  Doall_obs.Progress.tick pr;
  Doall_obs.Progress.tick pr;
  Doall_obs.Progress.finish pr;
  close_out wc;
  let text =
    let buf = Buffer.create 256 in
    let chunk = Bytes.create 256 in
    let rec drain () =
      match Unix.read r chunk 0 256 with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
    in
    drain ();
    Unix.close r;
    Buffer.contents buf
  in
  check "pipe saw renders" true (String.length text > 0);
  check "intermediate render drew" true
    (try ignore (Str.search_forward (Str.regexp_string "2/3") text 0); true
     with Not_found -> false);
  (* every \r is immediately followed by ESC [ K *)
  let n = String.length text in
  let rec scan i ok =
    if i >= n then ok
    else if text.[i] <> '\r' then scan (i + 1) ok
    else
      scan (i + 1)
        (ok && i + 3 < n && text.[i + 1] = '\027' && text.[i + 2] = '['
       && text.[i + 3] = 'K')
  in
  check "every \\r erases to EOL" true (String.contains text '\r' && scan 0 true);
  (* and no render papers over stale tails with trailing blanks *)
  check "no space-padding before overwrite" true
    (try ignore (Str.search_forward (Str.regexp " +\r") text 0); false
     with Not_found -> true)

(* ------------------------------------------------------------------ *)
(* Pool observability.                                                 *)

let test_pool_jobs_completed () =
  Pool.with_pool ~jobs:2 (fun pool ->
      check_int "idle queue" 0 (Pool.queue_depth pool);
      let xs = List.init 40 Fun.id in
      let ys = Pool.map pool (fun x -> x * x) xs in
      check "map result" true (ys = List.map (fun x -> x * x) xs);
      let completed = Pool.jobs_completed pool in
      check_int "one slot per domain" 2 (Array.length completed);
      check_int "all tasks accounted" 40
        (Array.fold_left ( + ) 0 completed);
      check_int "queue drained" 0 (Pool.queue_depth pool))

let suite =
  [
    Alcotest.test_case "counter" `Quick test_counter;
    Alcotest.test_case "disabled probe" `Quick
      test_disabled_probe_records_nothing;
    Alcotest.test_case "gauge last/max" `Quick test_gauge_last_and_max;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "observe_n" `Quick
      test_observe_n_equals_repeated_observe;
    Alcotest.test_case "vector" `Quick test_vector;
    Alcotest.test_case "series + snapshot isolation" `Quick
      test_series_and_snapshot_isolation;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "engine instruments vs metrics" `Quick
      test_engine_instruments_match_metrics;
    Alcotest.test_case "determinism: jobs x probes" `Quick
      test_grid_deterministic_across_jobs_and_probes;
    Alcotest.test_case "export run JSONL" `Quick test_export_run_jsonl;
    Alcotest.test_case "export trace JSONL" `Quick test_export_trace_jsonl;
    Alcotest.test_case "JSON escaping/floats" `Quick
      test_json_escaping_and_floats;
    Alcotest.test_case "progress rendering" `Quick test_progress_rendering;
    Alcotest.test_case "progress erases line" `Quick test_progress_erases_line;
    Alcotest.test_case "pool jobs_completed" `Quick test_pool_jobs_completed;
  ]
