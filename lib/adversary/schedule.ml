open Doall_sim

type t = Adversary.oracle -> bool array

let all = Adversary.all_active

let solo pid (o : Adversary.oracle) =
  Array.init o.p (fun i -> i = pid)

let round_robin ~width (o : Adversary.oracle) =
  if width < 1 then invalid_arg "Schedule.round_robin: width >= 1";
  let start = o.time () mod o.p in
  let active = Array.make o.p false in
  for k = 0 to min width o.p - 1 do
    active.((start + k) mod o.p) <- true
  done;
  active

let random_subset ~prob (o : Adversary.oracle) =
  Array.init o.p (fun _ -> Rng.chance o.rng prob)

let harmonic_speeds (o : Adversary.oracle) =
  let now = o.time () in
  Array.init o.p (fun i -> now mod (i + 1) = 0)

let adaptive_laggard (o : Adversary.oracle) =
  let active = Array.make o.p true in
  let delayed = ref 0 in
  let budget = o.p / 2 in
  (try
     for pid = 0 to o.p - 1 do
       if !delayed >= budget then raise Exit;
       if o.alive pid && not (o.halted pid) then
         match o.would_perform pid with
         | Some task when not (o.task_done task) ->
           active.(pid) <- false;
           incr delayed
         | Some _ | None -> ()
     done
   with Exit -> ());
  active
