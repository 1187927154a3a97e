open Doall_sim

type t = { p : int; threshold : int }

let majority ~p =
  if p < 1 then invalid_arg "Quorum.majority: p >= 1";
  { p; threshold = (p / 2) + 1 }

let satisfied t responders =
  if Bitset.length responders <> t.p then
    invalid_arg "Quorum.satisfied: responder set has the wrong capacity";
  Bitset.cardinal responders >= t.threshold
