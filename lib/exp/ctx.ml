open Doall_sim
open Doall_core
module Progress = Doall_obs.Progress

type faults = string * Adversary.faults

(* Memo key: the run spec plus everything else that can change a cell's
   metrics — the invariant oracle is read-only but kept in the key
   anyway (honesty over cleverness), and fault policies are closures, so
   they are identified by their caller-supplied tag. *)
type key = Runner.run_spec * bool * string

type t = {
  pool : Pool.t option;
  jobs : int option;
  progress : bool;
  label : string;
  memo : (key, Runner.result) Hashtbl.t;
  on_table : name:string -> Doall_analysis.Table.t -> unit;
  on_text : string -> unit;
  mutable table_seq : int;
  mutable misses : int;
}

let make ?pool ?jobs ?(progress = false) ~label ~on_table ~on_text () =
  {
    pool;
    jobs;
    progress;
    label;
    memo = Hashtbl.create 64;
    on_table;
    on_text;
    table_seq = 0;
    misses = 0;
  }

let key ?(check = false) ?faults spec : key =
  (spec, check, match faults with None -> "" | Some (tag, _) -> tag)

let grid t ?check ?faults specs =
  let keys = List.map (fun s -> key ?check ?faults s) specs in
  (* first-occurrence dedup of the cache misses, preserving order *)
  let seen = Hashtbl.create 16 in
  let missing =
    List.filter_map
      (fun ((spec, _, _) as k) ->
        if Hashtbl.mem t.memo k || Hashtbl.mem seen k then None
        else begin
          Hashtbl.add seen k ();
          Some (k, spec)
        end)
      keys
  in
  (match missing with
   | [] -> ()
   | _ ->
     t.misses <- t.misses + List.length missing;
     let specs_to_run = List.map snd missing in
     let total = List.length specs_to_run in
     let meter =
       if t.progress && total > 1 then
         Some (Progress.create ~total ~label:t.label ())
       else None
     in
     let on_cell =
       Option.map
         (fun pr ~finished:_ ~total:_ (_ : Runner.result) -> Progress.tick pr)
         meter
     in
     let results =
       Fun.protect
         ~finally:(fun () -> Option.iter Progress.finish meter)
         (fun () ->
           Runner.run_grid ?pool:t.pool ?jobs:t.jobs ?check ?faults:(Option.map snd faults)
             ?on_cell specs_to_run)
     in
     List.iter2
       (fun (k, _) r -> Hashtbl.replace t.memo k r)
       missing results);
  List.map (fun k -> Hashtbl.find t.memo k) keys

let cell t ?check ?faults spec =
  match grid t ?check ?faults [ spec ] with
  | [ r ] -> r
  | _ -> assert false

let mean_work t ?check ?faults ?transport ~seeds ~algo ~adv ~p ~t:tasks ~d ()
    =
  let specs =
    List.map
      (fun seed -> Runner.spec ~seed ?transport ~algo ~adv ~p ~t:tasks ~d ())
      seeds
  in
  Doall_analysis.Stats.mean
    (List.map
       (fun r -> float_of_int r.Runner.metrics.Metrics.work)
       (grid t ?check ?faults specs))

let map t f xs =
  match t.pool with
  | Some pool -> Pool.map pool f xs
  | None -> Pool.run ?jobs:t.jobs f xs

let cells_simulated t = t.misses

let emit t ?name tbl =
  t.table_seq <- t.table_seq + 1;
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "t%d" t.table_seq
  in
  t.on_table ~name tbl

let print t s = t.on_text s
