(* Grid computing: a SETI-like batch of independent work units.

   Run with:  dune exec examples/grid_computing.exe

   The paper's motivating scenario (Section 1): a pool of volunteer
   machines cooperates on a batch of idempotent work units. Volunteers
   are wildly heterogeneous (some are 10x slower), the network has
   straggler links, and machines drop out mid-run without saying
   goodbye. Do-All algorithms guarantee every unit is processed and
   bound the redundant computation.

   We model a campaign of 240 work units on 12 volunteers:
   - "harmonic" speeds: volunteer i runs (i+1)x slower than volunteer 0;
   - bimodal network: 20% of packets take the worst-case route;
   - a third of the volunteers quit mid-campaign.

   Compare the naive mirror-everything strategy against DA and PA. *)

open Doall_sim
open Doall_core
open Doall_adversary
open Doall_analysis

let volunteers = 12
let work_units = 240
let worst_latency = 16

(* A campaign-specific adversary assembled from library parts. *)
let flaky_grid () =
  Adversary.make ~name:"flaky-grid" ~schedule:Schedule.harmonic_speeds
    ~delay:(Delay.bimodal ~slow_fraction:0.2)
    ~crash:
      (Crash.at_time
         ~time:(work_units / 3)
         ~pids:[ 3; 7; 11; 5 ])
    ()

let campaign algo =
  let cfg = Config.make ~seed:2026 ~p:volunteers ~t:work_units () in
  Engine.run_packed algo cfg ~d:worst_latency ~adversary:(flaky_grid ()) ()

let () =
  Printf.printf
    "Campaign: %d work units, %d volunteers (harmonic speeds), 4 dropouts, \
     worst latency %d\n\n"
    work_units volunteers worst_latency;
  let tbl =
    Table.create ~title:"strategies"
      ~columns:
        [
          "strategy"; "work"; "redundant"; "messages"; "wall-clock";
          "survivors";
        ]
  in
  List.iter
    (fun (label, algo) ->
      let m = campaign algo in
      assert (m.Metrics.completed);
      Table.add_row tbl
        [
          label;
          Table.cell_int m.Metrics.work;
          Table.cell_int (Metrics.redundant m);
          Table.cell_int m.Metrics.messages;
          Table.cell_int m.Metrics.sigma;
          Table.cell_int (volunteers - m.Metrics.crashed);
        ])
    [
      ("mirror-all (oblivious)", Algo_trivial.make ());
      ("DA(4) progress tree", Algo_da.make ~q:4 ());
      ("PaRan1", Algo_pa.make_ran1 ());
      ("PaDet", Algo_pa.make_det ());
    ];
  Table.add_note tbl
    "redundant = work units processed more than once; the coordinated \
     algorithms trade messages for an order of magnitude less compute";
  Table.print tbl;
  (* The guarantee that matters operationally: every unit was processed,
     even though a third of the fleet vanished. *)
  Printf.printf
    "\nAll %d units processed under every strategy despite the dropouts.\n"
    work_units
