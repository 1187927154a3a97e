open Doall_sim

type partition = { t : int; n : int; base : int; extra : int }

let make ~p ~t =
  if p <= 0 || t <= 0 then invalid_arg "Task.make: p and t must be positive";
  let n = min p t in
  { t; n; base = t / n; extra = t mod n }

let check_job part j =
  if j < 0 || j >= part.n then invalid_arg "Task: job id out of range"

(* The first [extra] jobs hold [base + 1] tasks, the rest [base]. *)
let lo part j = (j * part.base) + Int.min j part.extra

let job_lo part j =
  check_job part j;
  lo part j

let job_hi part j =
  check_job part j;
  lo part (j + 1)

let tasks_of_job part j =
  let first = job_lo part j in
  List.init (lo part (j + 1) - first) (fun k -> first + k)

let first_unknown part know j ~from =
  let hi = job_hi part j in
  let z = Int.max (lo part j) from in
  if z >= hi then z else Int.min hi (Bitset.next_missing know z)

let job_done part know j = first_unknown part know j ~from:0 = job_hi part j

let next_member part know j =
  let z = first_unknown part know j ~from:0 in
  if z < job_hi part j then Some z else None
