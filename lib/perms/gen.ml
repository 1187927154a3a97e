open Doall_sim

let random_list ~rng ~n ~count = List.init count (fun _ -> Perm.random rng n)
let identity_list ~n ~count = List.init count (fun _ -> Perm.identity n)

let seeded_list ~seed ~n ~count =
  let rng = Rng.create (seed lxor 0x9e3779b9) in
  random_list ~rng ~n ~count
