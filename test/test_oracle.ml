(* The invariant oracle's failure texts. Each case feeds crafted views
   to [Oracle.check_tick] / [Oracle.check_step] and pins the exact
   violation record (tick, pid, invariant name, detail) and its printed
   form, so a change to how the oracle audits cannot change what it
   reports. *)

open Doall_sim
open Doall_core

let t = 10

let set_of xs = Bitset.of_list t xs

(* A view of [p = 4] processors at tick 5, none halted, each knowing
   [locals.(pid)], the ledger holding [global]. *)
let view ?(time = 5) ?(locals = Array.make 4 []) ?(halted = Array.make 4 false)
    ?(live = 4) ?(finished = false) global =
  let locals = Array.map set_of locals in
  {
    Oracle.time = (fun () -> time);
    p = 4;
    t;
    global_done = set_of global;
    local_done = (fun pid -> locals.(pid));
    halted = (fun pid -> halted.(pid));
    live = (fun () -> live);
    finished = (fun () -> finished);
  }

let violation_t =
  Alcotest.testable
    (fun ppf v -> Oracle.pp_violation ppf v)
    (fun (a : Oracle.violation) b -> a = b)

let violation f =
  match f () with
  | () -> Alcotest.fail "no invariant violated"
  | exception Oracle.Invariant_violation v -> v

let expect name ~time ?pid ~invariant detail f =
  Alcotest.check violation_t name
    { Oracle.time; pid; invariant; detail }
    (violation f)

let tick v () = Oracle.check_tick (Oracle.create ()) v

let test_healthy_tick_passes () =
  let oc = Oracle.create () in
  Oracle.check_tick oc
    (view ~locals:[| [ 1 ]; []; [ 1; 2 ]; [ 2 ] |] [ 1; 2; 3 ]);
  Oracle.check_tick oc
    (view ~time:6 ~locals:[| [ 1 ]; [ 3 ]; [ 1; 2 ]; [ 2 ] |] [ 1; 2; 3; 4 ]);
  Alcotest.(check int) "two ticks audited" 2 (Oracle.ticks_checked oc)

let test_survivor () =
  expect "survivor" ~time:5 ~invariant:"survivor" "no processor alive (live=0)"
    (tick (view ~live:0 [ 1 ]))

let test_monotone_global_done () =
  let oc = Oracle.create () in
  Oracle.check_tick oc (view [ 1; 2; 3 ]);
  expect "monotone-global-done" ~time:6 ~invariant:"monotone-global-done"
    "previous tick claims task 2 done but it is not in the current ledger \
     (a done task was un-done)"
    (fun () -> Oracle.check_tick oc (view ~time:6 [ 1; 3; 4 ]))

let test_local_within_global () =
  (* pids 2 and 3 both outrun the ledger: the lowest pid and its lowest
     offending task are reported *)
  expect "local-within-global" ~time:5 ~pid:2 ~invariant:"local-within-global"
    "pid 2 claims task 7 done but it is not in the global ledger"
    (tick (view ~locals:[| [ 4 ]; []; [ 4; 7; 9 ]; [ 8 ] |] [ 4 ]))

let test_halted_knows_all () =
  expect "halted-knows-all" ~time:5 ~pid:1 ~invariant:"halted-knows-all"
    "halted with only 3/10 tasks known done"
    (tick
       (view
          ~locals:[| []; [ 0; 1; 2 ]; []; [] |]
          ~halted:[| false; true; true; false |]
          [ 0; 1; 2; 3 ]))

let test_termination_complete () =
  expect "termination-complete" ~time:5 ~invariant:"termination-complete"
    "run reported finished with 7/10 tasks done"
    (tick (view ~finished:true [ 0; 1; 2; 3; 4; 5; 6 ]))

let test_step_by_crashed () =
  expect "step-by-crashed" ~time:5 ~pid:3 ~invariant:"step-by-crashed"
    "a crashed processor took a step"
    (fun () -> Oracle.check_step ~time:5 ~pid:3 ~alive:false);
  Oracle.check_step ~time:5 ~pid:0 ~alive:true

let test_printed_form () =
  let v =
    violation
      (tick (view ~locals:[| [ 4 ]; []; [ 4; 7 ]; [] |] [ 4 ]))
  in
  Alcotest.(check string)
    "pp_violation"
    "invariant \"local-within-global\" violated at t=5 (pid 2): pid 2 claims \
     task 7 done but it is not in the global ledger"
    (Format.asprintf "%a" Oracle.pp_violation v);
  Alcotest.(check string)
    "registered printer"
    "Oracle.Invariant_violation: invariant \"survivor\" violated at t=5: no \
     processor alive (live=0)"
    (Printexc.to_string
       (Oracle.Invariant_violation (violation (tick (view ~live:0 [])))))

(* The healthy path allocates nothing. The warm-up tick builds the
   previous ledger, taking its own copy of every ledger chunk (the
   initial ledger has a bit in each); the next 1 000 ticks grow the
   ledger to full, then audit halted pids and a finished run. *)
let test_healthy_ticks_allocate_nothing () =
  let p = 64 and t = 3000 and calls = 1000 in
  let global = Bitset.create t in
  for k = 0 to (t / 3) - 1 do
    Bitset.set global (3 * k)
  done;
  let locals =
    Array.init p (fun pid ->
        Bitset.of_list t (List.init 20 (fun k -> 3 * ((pid * 31 + k * 97) mod 1000))))
  in
  let all = Bitset.of_list t (List.init t Fun.id) in
  let full = ref false in
  let view ~finished =
    {
      Oracle.time = (fun () -> 0);
      p;
      t;
      global_done = global;
      local_done = (fun pid -> if !full && pid < 8 then all else locals.(pid));
      halted = (fun pid -> !full && pid < 8);
      live = (fun () -> p);
      finished = (fun () -> finished);
    }
  in
  let growing = view ~finished:false and finished = view ~finished:true in
  let oc = Oracle.create () in
  Oracle.check_tick oc growing;
  let words = ref 0.0 in
  for i = 0 to calls - 1 do
    if i < 500 then
      for k = 2 * i to (2 * i) + 1 do
        Bitset.set global ((3 * k) + 1);
        Bitset.set global ((3 * k) + 2)
      done
    else full := true;
    let v = if !full then finished else growing in
    let w0 = Gc.minor_words () in
    Oracle.check_tick oc v;
    words := !words +. (Gc.minor_words () -. w0)
  done;
  Alcotest.(check bool) "ledger grew to full" true (Bitset.is_full global);
  Alcotest.(check int) "every tick audited" (calls + 1) (Oracle.ticks_checked oc);
  Alcotest.(check (float 0.)) "minor words over the healthy ticks" 0. !words

(* End to end: the oracle adds under 1 % to a run's allocation, on the
   strategy cell the adaptive-adversary benchmark audits. *)
let test_checked_run_allocates_as_unchecked () =
  let run check =
    let w0 = Gc.minor_words () in
    let r =
      Runner.run ~check ~algo:"da-q4"
        ~adv:"strategy:sched=all;delay=bimodal:0.783;crash=flaky:4:1" ~p:64
        ~t:1536 ~d:8 ~seed:1 ()
    in
    (r.Runner.metrics.Metrics.work, Gc.minor_words () -. w0)
  in
  ignore (run false);
  let w_unchecked, unchecked = run false in
  let w_checked, checked = run true in
  Alcotest.(check int) "same W" w_unchecked w_checked;
  Alcotest.(check bool)
    (Printf.sprintf "checked %.0f words within 1%% of unchecked %.0f" checked
       unchecked)
    true
    (checked <= unchecked *. 1.01)

let suite =
  [
    Alcotest.test_case "healthy ticks pass" `Quick test_healthy_tick_passes;
    Alcotest.test_case "survivor text" `Quick test_survivor;
    Alcotest.test_case "monotone-global-done text" `Quick
      test_monotone_global_done;
    Alcotest.test_case "local-within-global text" `Quick
      test_local_within_global;
    Alcotest.test_case "halted-knows-all text" `Quick test_halted_knows_all;
    Alcotest.test_case "termination-complete text" `Quick
      test_termination_complete;
    Alcotest.test_case "step-by-crashed text" `Quick test_step_by_crashed;
    Alcotest.test_case "printed form" `Quick test_printed_form;
    Alcotest.test_case "healthy ticks allocate nothing" `Quick
      test_healthy_ticks_allocate_nothing;
    Alcotest.test_case "checked run allocates as unchecked" `Quick
      test_checked_run_allocates_as_unchecked;
  ]
