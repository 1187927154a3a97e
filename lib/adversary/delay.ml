open Doall_sim

type t = Adversary.oracle -> src:int -> dst:int -> int

let immediate _ ~src:_ ~dst:_ = 1
let maximal (o : Adversary.oracle) ~src:_ ~dst:_ = o.d

let uniform (o : Adversary.oracle) ~src:_ ~dst:_ =
  1 + Rng.int o.rng (Int.max 1 o.d)

let bimodal ~slow_fraction (o : Adversary.oracle) ~src:_ ~dst:_ =
  if Rng.float o.rng 1.0 < slow_fraction then o.d else 1


let stage_batched ~stage_len (o : Adversary.oracle) ~src:_ ~dst:_ =
  if stage_len < 1 then invalid_arg "Delay.stage_batched: stage_len >= 1";
  let now = o.time () in
  let next_boundary = ((now / stage_len) + 1) * stage_len in
  next_boundary - now

let partition ~split (o : Adversary.oracle) ~src ~dst =
  let side pid = pid < split in
  if side src = side dst then 1 else o.d

let churn ~calm ~storm (o : Adversary.oracle) ~src:_ ~dst:_ =
  if calm < 1 || storm < 1 then invalid_arg "Delay.churn: periods >= 1";
  let phase = o.time () mod (calm + storm) in
  if phase < calm then 1 else o.d

let targeted ~victims (o : Adversary.oracle) ~src:_ ~dst =
  if victims dst then o.d else 1
