type 'r t = { t : int; run : int -> 'r; equal : 'r -> 'r -> bool }

let make ?(equal = ( = )) ~t run =
  if t < 1 then invalid_arg "Workload.make: t >= 1";
  { t; run; equal }

let run_task w z =
  if z < 0 || z >= w.t then invalid_arg "Workload.run_task: task out of range";
  w.run z

module Journal = struct
  type 'r workload = 'r t

  type 'r t = {
    w : 'r workload;
    first : (int, 'r) Hashtbl.t;
    mutable redundant : int;
    mutable consistent : bool;
  }

  let create w =
    { w; first = Hashtbl.create 64; redundant = 0; consistent = true }

  (* execute [task] and record the outcome: a re-execution that
     disagrees with the first result breaks idempotence *)
  let record j ~task =
    let r = run_task j.w task in
    match Hashtbl.find_opt j.first task with
    | None -> Hashtbl.add j.first task r
    | Some r0 ->
      j.redundant <- j.redundant + 1;
      if not (j.w.equal r0 r) then j.consistent <- false

  let replay_trace j trace =
    Doall_sim.Trace.iter trace (fun ev ->
        match ev with
        | Doall_sim.Trace.Perform { task; _ } -> record j ~task
        | _ -> ())

  let redundant j = j.redundant
  let complete j = Hashtbl.length j.first = j.w.t
  let consistent j = j.consistent

  let results j =
    List.filter_map
      (fun z -> Option.map (fun r -> (z, r)) (Hashtbl.find_opt j.first z))
      (List.init j.w.t Fun.id)
end

let keyspace_scan ~t ~shard_size ~hit =
  if shard_size < 1 then invalid_arg "Workload.keyspace_scan: shard_size >= 1";
  make ~t (fun z ->
      let lo = z * shard_size in
      List.filter hit (List.init shard_size (fun k -> lo + k)))
