(* Every metric the suite reports, with its unit and direction. The
   regression bounds of the end-to-end metrics live in BENCHMARK.json
   at the repository root; the suite's tests check that file against
   this list in both directions. Every metric in seconds is reported
   in reference seconds (see Measure.reference_s), and its name, and no
   other, ends in "_s". *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let m ?(better = Lower) name unit = { name; unit; better }

let in_seconds name = String.ends_with ~suffix:"_s" name

(* Untraced, host-side, per timed repetition (medians over the run). *)
let end_to_end =
  [
    m "wall_s" "s";
    m "cpu_s" "s";
    m "setup_s" "s";
    m "alloc_mwords" "Mwords";
    m "peak_rss_mb" "MB";
  ]

(* Reported by the traced run only. Seconds are medians over traced
   repetitions of the per-repetition sums over the workload's cells;
   counts are per repetition and deterministic. *)
let per_layer =
  [
    (* engine: lib/sim/engine.ml phases, read from its Span snapshot *)
    m "engine.deliver_s" "s";
    m "engine.algo_step_s" "s";
    m "engine.bcast_maint_s" "s";
    m "engine.adversary_s" "s";
    m "engine.create_s" "s";
    m "engine.self_s" "s";
    m "engine.ticks" "count";
    m "engine.steps" "count";
    (* algo: the packed algorithm behind the bench-side Timed wrapper *)
    m "algo.init_s" "s";
    m "algo.step.calls" "count";
    m "algo.step_s" "s";
    m "algo.step.minor_words" "words";
    m "algo.receive.calls" "count";
    m "algo.receive_s" "s";
    m "algo.fold.calls" "count";
    m "algo.fold.msgs" "count";
    m "algo.broadcasts" "count";
    m "algo.unicasts" "count";
    m ~better:Higher "algo.useful_ratio" "ratio";
    (* adversary: every closure field of Adversary.t, wrapped *)
    m "adversary.schedule_s" "s";
    m "adversary.crash_s" "s";
    m "adversary.delay.calls" "count";
    m "adversary.lookahead_steps" "count";
    m "adversary.lookahead_copies" "count";
    (* transport: self time by subtraction, counts from the probe *)
    m "transport.drain_s" "s";
    m "transport.send_s" "s";
    m "transport.deliveries" "count";
    m "transport.drops" "count";
    m "transport.dups" "count";
    m "transport.collisions" "count";
    m "transport.busy_slots" "count";
    m ~better:Higher "transport.msgs_per_receive" "ratio";
    m ~better:Higher "transport.slot_success_ratio" "ratio";
    (* oracle *)
    m "oracle.ticks" "count";
    (* runner / pool, from the untraced repetitions of the same run *)
    m "pool.busy_s" "s";
    m "pool.idle_s" "s";
    m ~better:Higher "pool.utilization" "ratio";
    m "pool.cell_median_s" "s";
    (* setup *)
    m "setup.install_s" "s";
    m "setup.make_s" "s";
    (* gc: Gc.quick_stat deltas *)
    m "gc.minor_collections" "count";
    m "gc.major_collections" "count";
    m "gc.promoted_words" "words";
    m "gc.major_words" "words";
    m "gc.top_heap_mb" "MB";
    m "trace.overhead" "ratio";
  ]

(* The naming rule BENCHMARK.json imposes on metric and workload names. *)
let valid_name s =
  let ok c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all ok s
