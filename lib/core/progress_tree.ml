open Doall_sim

type t = {
  q : int;
  h : int;
  leaves : int;
  size : int;
  first_leaf : int;
  jobs : int;
}

let shape ~q ~jobs =
  if q < 2 then invalid_arg "Progress_tree.shape: q >= 2";
  if jobs < 1 then invalid_arg "Progress_tree.shape: jobs >= 1";
  let rec grow h leaves = if leaves >= jobs then (h, leaves) else grow (h + 1) (leaves * q) in
  let h, leaves = grow 0 1 in
  (* size = 1 + q + q^2 + .. + q^h *)
  let rec total acc pow k = if k > h then acc else total (acc + pow) (pow * q) (k + 1) in
  let size = total 0 1 0 in
  { q; h; leaves; size; first_leaf = size - leaves; jobs }

let root = 0

let check sh v =
  if v < 0 || v >= sh.size then invalid_arg "Progress_tree: node out of range"

let is_leaf sh v =
  check sh v;
  v >= sh.first_leaf

let child sh v j =
  check sh v;
  if is_leaf sh v then invalid_arg "Progress_tree.child: leaf has no children";
  if j < 0 || j >= sh.q then invalid_arg "Progress_tree.child: branch out of range";
  (sh.q * v) + 1 + j

let depth sh v =
  check sh v;
  let rec go v acc = if v = 0 then acc else go ((v - 1) / sh.q) (acc + 1) in
  go v 0

let is_dummy_leaf sh v =
  is_leaf sh v && v - sh.first_leaf >= sh.jobs

let job_of_leaf sh v =
  if not (is_leaf sh v) then invalid_arg "Progress_tree.job_of_leaf: not a leaf";
  if is_dummy_leaf sh v then invalid_arg "Progress_tree.job_of_leaf: dummy leaf";
  v - sh.first_leaf

let initial_marks sh =
  let b = Bitset.create sh.size in
  for v = sh.first_leaf + sh.jobs to sh.size - 1 do
    Bitset.set b v
  done;
  (* Mark interior nodes whose children are all marked, bottom-up. *)
  for v = sh.first_leaf - 1 downto 0 do
    let all = ref true in
    for j = 0 to sh.q - 1 do
      if not (Bitset.mem b (child sh v j)) then all := false
    done;
    if !all then Bitset.set b v
  done;
  b

let subtree_jobs sh v =
  check sh v;
  let acc = ref [] in
  let rec go v =
    if is_leaf sh v then begin
      if not (is_dummy_leaf sh v) then acc := job_of_leaf sh v :: !acc
    end
    else
      for j = sh.q - 1 downto 0 do
        go (child sh v j)
      done
  in
  go v;
  !acc
