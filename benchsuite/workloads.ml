(* The five workloads. Each is a closed loop over a fixed list of cells:
   the next cell starts only when the previous one has finished. Cells
   are derived from the run's seed [s] and nothing else, so the same
   seed always gives the same inputs. Sizes are chosen so that one
   repetition takes about a second on a 2-core host, and the largest
   resident set stays far below the 5-12 GB of bench/main.ml's xl
   cells. *)

open Doall_sim
open Doall_core

type cell = { spec : Runner.run_spec; check : bool }

type t = {
  name : string;
  why : string;
  jobs : int;  (** domains the untraced repetitions run on *)
  cells : seed:int -> cell list;
}

let cell ?(check = false) ?(transport = Config.Ptp) ~seed algo adv p t d =
  { spec = Runner.spec ~seed ~transport ~algo ~adv ~p ~t ~d (); check }

let detect = Config.Channel Config.Detectable
let silent = Config.Channel Config.Silent

(* Sizes are also picked so that W barely moves with the seed: a paran1
   run that ends after ten rounds takes eleven on some seeds, which is
   10% more work. The one cell without such a size runs at two seeds. *)

let ptp_stream ~seed =
  [
    cell ~seed "paran1" "max-delay" 256 32768 16;
    cell ~seed "da-q4" "max-delay" 256 131072 16;
    cell ~seed "da-q4" "max-delay" 1024 4096 8;
    cell ~seed "paran1" "max-delay" 2048 512 8;
  ]

let ptp_general ~seed =
  [
    cell ~seed "paran1" "uniform-delay" 256 512 16;
    cell ~seed "paran1" "stragglers" 256 768 16;
    cell ~seed "paran1" "flaky-restart" 256 768 16;
    cell ~seed:(seed + 1) "paran1" "flaky-restart" 256 768 16;
    cell ~seed "padet" "dup-storm" 128 1024 16;
  ]

let channel ~seed =
  [
    cell ~seed ~transport:detect "paran1" "chan-ordered" 128 4096 8;
    cell ~seed ~transport:detect "padet" "chan-ordered" 128 4096 8;
    cell ~seed ~transport:detect "da-q4" "chan-delayed-ordered" 128 8192 8;
    cell ~seed ~transport:silent "paran1" "chan-rotor" 64 4096 8;
  ]

(* One strategy that `doall synth` found against DA(4): all processors
   step, bimodal delays, flaky crashes. *)
let synth_strategy = "strategy:sched=all;delay=bimodal:0.783;crash=flaky:4:1"

let adaptive ~seed =
  List.concat_map
    (fun seed ->
      [
        cell ~check:true ~seed "awq-q4" "lb-rand" 32 384 8;
        cell ~check:true ~seed "da-q4" synth_strategy 64 1536 8;
        cell ~check:true ~seed "da-q4" "lb-det" 128 8192 8;
      ])
    [ seed; seed + 1 ]

(* awq-q4 x lb-rand is left out: one such cell outlasts the whole rest
   of the grid and would turn this into an adversary workload. *)
let grid_algos =
  [ "paran1"; "paran2"; "padet"; "coord"; "da-q2"; "da-q4"; "da-q8"; "awq-q4" ]

let grid_advs =
  [
    "fair"; "max-delay"; "uniform-delay"; "random-half"; "batch";
    "crash-half"; "stragglers"; "flaky-restart";
  ]

let exp_grid ~seed =
  Runner.grid ~seeds:[ seed; seed + 1 ] ~algos:grid_algos ~advs:grid_advs
    ~points:[ (32, 512, 4); (64, 1024, 16) ]
    ()
  |> List.map (fun spec -> { spec; check = false })

let all =
  [
    {
      name = "ptp-stream";
      why =
        "shared-broadcast stream, epoch digests and the Delta wire: large \
         knowledge sets at t=131072 and many receivers at p=2048";
      jobs = 1;
      cells = ptp_stream;
    };
    {
      name = "ptp-general";
      why =
        "per-destination path: variable latency, Full wire, p-1 delay calls \
         per multicast, faults and restarts; the stream is bypassed";
      jobs = 1;
      cells = ptp_general;
    };
    {
      name = "channel";
      why =
        "shared-medium transport: slot resolution every tick and Full-wire \
         snapshots copied on every broadcast";
      jobs = 1;
      cells = channel;
    };
    {
      name = "adaptive-adversary";
      why =
        "omniscient lookahead (clone plus isolated steps) and the invariant \
         oracle, on the cells doall synth evaluates";
      jobs = 1;
      cells = adaptive;
    };
    {
      name = "exp-grid";
      why =
        "many short cells through Runner.run_grid on a 2-domain pool, as \
         doall exp run uses it; set-up is the DA(8) list search";
      jobs = 2;
      cells = exp_grid;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Algorithms whose first [make ()] is part of the workload's set-up. *)
let algos w =
  List.sort_uniq compare
    (List.map (fun c -> c.spec.Runner.spec_algo) (w.cells ~seed:1))
