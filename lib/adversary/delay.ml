open Doall_sim

type t = Adversary.delay_rule

let maximal = Adversary.Bound

let uniform =
  Adversary.Per_copy
    (fun (o : Adversary.oracle) ~src:_ ~dst:_ ->
      1 + Rng.int o.rng (Int.max 1 o.d))

let bimodal ~slow_fraction =
  Adversary.Per_copy
    (fun (o : Adversary.oracle) ~src:_ ~dst:_ ->
      if Rng.chance o.rng slow_fraction then o.d else 1)

let stage_batched ~stage_len =
  if stage_len < 1 then invalid_arg "Delay.stage_batched: stage_len >= 1";
  Adversary.Per_copy
    (fun (o : Adversary.oracle) ~src:_ ~dst:_ ->
      let now = o.time () in
      let next_boundary = ((now / stage_len) + 1) * stage_len in
      next_boundary - now)

let partition ~cut =
  Adversary.Per_copy
    (fun (o : Adversary.oracle) ~src ~dst ->
      let split = Int.max 1 (o.p / cut) in
      if (src < split) = (dst < split) then 1 else o.d)

let churn ~calm ~storm =
  if calm < 1 || storm < 1 then invalid_arg "Delay.churn: periods >= 1";
  Adversary.Per_copy
    (fun (o : Adversary.oracle) ~src:_ ~dst:_ ->
      let phase = o.time () mod (calm + storm) in
      if phase < calm then 1 else o.d)

let targeted ~victims =
  Adversary.Per_copy
    (fun (o : Adversary.oracle) ~src:_ ~dst -> if victims dst then o.d else 1)
