open Doall_sim

type order = Adversary.oracle -> int array -> int array option
type hold = Adversary.oracle -> src:int -> int

let ordered_low _ contenders = Some contenders

let ordered_high _ contenders =
  let n = Array.length contenders in
  Some (Array.init n (fun i -> contenders.(n - 1 - i)))

let rotor k (o : Adversary.oracle) contenders =
  let n = Array.length contenders in
  let w = (((o.time () + k) mod n) + n) mod n in
  Some
    (Array.init n (fun i ->
         if i = 0 then contenders.(w)
         else if i <= w then contenders.(i - 1)
         else contenders.(i)))

let most_informed_last (o : Adversary.oracle) contenders =
  let novelty pid =
    match o.would_perform pid with
    | Some task when not (o.task_done task) -> 1
    | Some _ | None -> 0
  in
  let keyed = Array.map (fun pid -> (novelty pid, pid)) contenders in
  (* redundant transmitters first; ties stay in ascending pid order *)
  Array.sort compare keyed;
  Some (Array.map snd keyed)

let batched ~cap (o : Adversary.oracle) ~src:_ =
  if cap < 1 then invalid_arg "Chan.batched: cap >= 1";
  let now = o.time () in
  (cap - (now mod cap)) mod cap
