(* Distributed search: partition a key space, survive a hostile run.

   Run with:  dune exec examples/distributed_search.exe

   A cluster checks a keyspace partitioned into shards (each shard is
   one idempotent task: "scan shard k, report hits"). We attach a real
   payload via Doall_workload: the engine's trace says *which* shard
   executions happened, and the workload journal replays them against
   actual scan functions, verifying idempotence end-to-end — every shard
   scanned at least once, repeated scans reproducing identical results.

   The adversary is the nastiest the model allows short of the
   lower-bound constructions: omniscient laggard scheduling (it stalls
   whoever is about to do fresh work), worst-case latency on every
   message, and a staggered crash sequence that keeps felling the lowest
   live node (the engine guarantees one survivor). *)

open Doall_sim
open Doall_core
open Doall_adversary
open Doall_workload

let nodes = 10
let shards = 80
let shard_size = 25
let latency_bound = 8

(* Application payload: scan a shard of the keyspace for "hits". *)
let workload =
  Workload.keyspace_scan ~t:shards ~shard_size ~hit:(fun key -> key mod 171 = 0)

let hostile () =
  Adversary.make ~name:"hostile"
    ~schedule:Schedule.adaptive_laggard ~delay:Delay.maximal
    ~crash:(Crash.staggered ~every:8) ()

let () =
  Printf.printf
    "Scanning %d shards on %d nodes; hostile scheduling, latency %d, \
     staggered crashes.\n\n"
    shards nodes latency_bound;
  let cfg = Config.make ~seed:11 ~record_trace:true ~p:nodes ~t:shards () in
  let algo = Algo_pa.make_ran2 () in
  let (module A : Algorithm.S) = algo in
  let module E = Engine.Make (A) in
  let eng = E.create cfg ~d:latency_bound ~adversary:(hostile ()) in
  let metrics = E.run eng in
  assert (metrics.Metrics.completed);

  (* Replay the trace against the real scan functions. *)
  let journal = Workload.Journal.create workload in
  Workload.Journal.replay_trace journal (E.trace eng);
  let hits =
    List.concat_map snd (Workload.Journal.results journal)
  in
  let expected_hits =
    List.filter (fun k -> k mod 171 = 0)
      (List.init (shards * shard_size) Fun.id)
  in
  Format.printf "%a@." Metrics.pp metrics;
  Printf.printf "nodes lost to crashes: %d (one survivor guaranteed)\n"
    metrics.Metrics.crashed;
  Printf.printf "every shard scanned:   %b\n"
    (Workload.Journal.complete journal);
  Printf.printf "redundant scans:       %d (idempotent: re-scans verified \
                 to reproduce identical results)\n"
    (Workload.Journal.redundant journal);
  Printf.printf "idempotence verified:  %b\n"
    (Workload.Journal.consistent journal);
  Printf.printf "hits found:            %d (expected %d)\n"
    (List.length hits) (List.length expected_hits);
  assert (Workload.Journal.complete journal);
  assert (Workload.Journal.consistent journal);
  assert (List.sort compare hits = expected_hits);
  print_endline "\nSearch complete: results identical to a failure-free run."
