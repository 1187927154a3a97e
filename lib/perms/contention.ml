open Doall_sim

let check_sizes psi rho =
  let n = Perm.size rho in
  List.iter
    (fun pi ->
      if Perm.size pi <> n then
        invalid_arg "Contention: size mismatch between list and rho")
    psi;
  n

let contention_wrt psi ~rho =
  ignore (check_sizes psi rho);
  let rho_inv = Perm.inverse rho in
  List.fold_left (fun acc pi -> acc + Lrm.lrm (Perm.compose rho_inv pi)) 0 psi

let d_contention_wrt ~d psi ~rho =
  ignore (check_sizes psi rho);
  let rho_inv = Perm.inverse rho in
  List.fold_left
    (fun acc pi -> acc + Lrm.d_lrm ~d (Perm.compose rho_inv pi))
    0 psi

let d_contention_profile_wrt psi ~rho =
  let n = check_sizes psi rho in
  let rho_inv = Perm.inverse rho in
  let total = Array.make (n + 1) 0 in
  List.iter
    (fun pi ->
      let prof = Lrm.d_lrm_profile (Perm.compose rho_inv pi) in
      for d = 0 to n do
        total.(d) <- total.(d) + prof.(d)
      done)
    psi;
  total

(* The subset recurrence of the .mli: [gain.(r * n + x)] is
   [gain(r, x)], [f] is kept solved for it, and [saved] is [f] before
   the current swap. *)
type table = {
  n : int;
  psi : int array array;
  gain : int array;
  f : int array;
  saved : int array;
}

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

(* Adds [sign] to [gain(r, a.(k))] for [lo <= k <= hi] wherever [a.(k)]
   is a d-lrm: fewer than [d] of the elements before it ([before] at
   [k = lo]) lie outside [r]. [(r + 1) lor base] steps through the
   supersets of [base]; for [d = 1] only supersets of the prefix count. *)
let add ~d t ~sign a ~before lo hi =
  let before = ref before and full = (1 lsl t.n) - 1 in
  for k = lo to hi do
    let bit = 1 lsl a.(k) in
    let base = if d = 1 then !before lor bit else bit in
    let r = ref base in
    while !r <= full do
      if d = 1 || popcount (!before land lnot !r) < d then
        t.gain.((!r * t.n) + a.(k)) <- t.gain.((!r * t.n) + a.(k)) + sign;
      r := (!r + 1) lor base
    done;
    before := !before lor bit
  done

(* Re-solves [f] on the supersets of [above] in increasing order; the
   gains that moved lie on those sets only, so [f] elsewhere holds. *)
let resolve t ~above =
  let n = t.n and full = (1 lsl t.n) - 1 in
  let r = ref above in
  while !r <= full do
    let s = !r and best = ref 0 in
    for x = 0 to n - 1 do
      if s land (1 lsl x) <> 0 then begin
        let v = t.gain.((s * n) + x) + t.f.(s lxor (1 lsl x)) in
        if v > !best then best := v
      end
    done;
    t.f.(s) <- !best;
    r := (s + 1) lor above
  done

let build ~d psi =
  let n = Array.length psi.(0) in
  let size = 1 lsl n in
  let t =
    { n; psi; gain = Array.make (size * n) 0; f = Array.make size 0;
      saved = Array.make size 0 }
  in
  Array.iter (fun a -> add ~d t ~sign:1 a ~before:0 0 (n - 1)) psi;
  resolve t ~above:0;
  t

let table psi =
  if Array.length psi = 0 || Array.length psi.(0) > 8 then
    invalid_arg "Contention.table: needs a non-empty list of size <= 8";
  build ~d:1 psi

let value t = t.f.((1 lsl t.n) - 1)

(* Swapping positions [lo < hi] changes the prefix sets of the elements
   at [lo..hi] only, so only their gains move, and [f] only on the
   supersets of the prefix [above]. The same move again reverts the
   gains; [saved] reverts [f]. *)
let try_swap t u i j =
  let a = t.psi.(u) and old = value t in
  let lo, hi = if i < j then (i, j) else (j, i) in
  let rec mask k = if k = 0 then 0 else mask (k - 1) lor (1 lsl a.(k - 1)) in
  let above = mask lo in
  let move () =
    add ~d:1 t ~sign:(-1) a ~before:above lo hi;
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp;
    add ~d:1 t ~sign:1 a ~before:above lo hi
  in
  Array.blit t.f 0 t.saved 0 (Array.length t.f);
  move ();
  resolve t ~above;
  if value t > old then begin
    move ();
    Array.blit t.saved 0 t.f 0 (Array.length t.f)
  end

let exact ~d psi =
  match psi with
  | [] -> 0
  | pi :: _ ->
    if Perm.size pi > 8 then
      invalid_arg "Contention.*_exact: exhaustive search limited to n <= 8";
    ignore (check_sizes psi pi);
    value (build ~d (Array.of_list (List.map Perm.to_array psi)))

let contention_exact psi = exact ~d:1 psi

let d_contention_exact ~d psi =
  if d < 1 then invalid_arg "Contention.d_contention_exact: d must be >= 1";
  exact ~d psi

(* First-improvement hill climbing over rho under the swap neighbourhood.
   Contention is invariant under relabelling only of both psi and rho, so
   the landscape genuinely depends on rho; swaps reach all of S_n. *)
let climb eval psi rng rho0 =
  let n = Array.length rho0 in
  let rho = Array.copy rho0 in
  let current = ref (eval psi ~rho:(Perm.of_array_unsafe rho)) in
  let improved = ref true in
  let budget = ref (8 * n * n) in
  while !improved && !budget > 0 do
    improved := false;
    (* Randomized scan order avoids systematic bias in tie-handling. *)
    let order = Rng.permutation rng (n * (n - 1) / 2) in
    let pair k =
      (* decode k-th unordered pair (i, j), i < j *)
      let rec find i k =
        let row = n - 1 - i in
        if k < row then (i, i + 1 + k) else find (i + 1) (k - row)
      in
      find 0 k
    in
    (try
       Array.iter
         (fun k ->
           decr budget;
           if !budget <= 0 then raise Exit;
           let i, j = pair k in
           let tmp = rho.(i) in
           rho.(i) <- rho.(j);
           rho.(j) <- tmp;
           let v = eval psi ~rho:(Perm.of_array_unsafe rho) in
           if v > !current then begin
             current := v;
             improved := true
           end
           else begin
             let tmp = rho.(i) in
             rho.(i) <- rho.(j);
             rho.(j) <- tmp
           end)
         order
     with Exit -> ())
  done;
  !current

let estimate eval ?(restarts = 8) ?(samples = 64) ~rng psi =
  match psi with
  | [] -> 0
  | pi :: _ ->
    let n = Perm.size pi in
    let best = ref (eval psi ~rho:(Perm.identity n)) in
    for _ = 1 to samples do
      let rho = Perm.random rng n in
      best := max !best (eval psi ~rho)
    done;
    for r = 0 to restarts - 1 do
      let rho0 =
        if r = 0 then Perm.to_array (Perm.identity n)
        else Rng.permutation rng n
      in
      best := max !best (climb eval psi rng rho0)
    done;
    !best

let d_contention_estimate ?restarts ?samples ~rng ~d psi =
  estimate (d_contention_wrt ~d) ?restarts ?samples ~rng psi

let harmonic n =
  let s = ref 0.0 in
  for j = 1 to n do
    s := !s +. (1.0 /. float_of_int j)
  done;
  !s

let bound_lemma_4_1 n = 3.0 *. float_of_int n *. harmonic n

let bound_theorem_4_4 ~n ~p ~d =
  let nf = float_of_int n and pf = float_of_int p and df = float_of_int d in
  (nf *. log nf)
  +. (8.0 *. pf *. df *. log (Float.exp 1.0 +. (nf /. df)))
