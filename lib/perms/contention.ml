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

(* Every rho^{-1} for rho in S_n, in lexicographic order of rho, flat:
   row [r] occupies [inv.(r * n) .. inv.(r * n + n - 1)]. Built once per
   exact evaluation or search instead of materialising [Perm.all n]. *)
type inverses = { n : int; orders : int; inv : int array }

let inverses n =
  if n < 0 || n > 8 then invalid_arg "Contention.inverses: n must be in 0..8";
  let orders = ref 1 in
  for k = 2 to n do
    orders := !orders * k
  done;
  let inv = Array.make (!orders * n) 0 in
  let rho = Array.init n Fun.id in
  let r = ref 0 and more = ref true in
  while !more do
    for i = 0 to n - 1 do
      inv.((!r * n) + rho.(i)) <- i
    done;
    incr r;
    more := Perm.next_in_place rho
  done;
  { n; orders = !orders; inv }

let orders t = t.orders

(* [lrm(rho_r^{-1} o pi)]: the left-to-right maxima of the sequence
   [inv_r.(pi(0)), inv_r.(pi(1)), ...], without building it. *)
let lrm_at t pi r =
  let base = r * t.n in
  let best = ref (-1) and c = ref 0 in
  for j = 0 to t.n - 1 do
    let v = t.inv.(base + Perm.apply pi j) in
    if v > !best then begin
      best := v;
      incr c
    end
  done;
  !c

(* Position [j] is a d-lrm when fewer than [d] earlier elements exceed it;
   a quadratic count is cheaper than a Fenwick tree at [n <= 8]. *)
let d_lrm_at ~d t pi r =
  let base = r * t.n in
  let c = ref 0 in
  for j = 0 to t.n - 1 do
    let v = t.inv.(base + Perm.apply pi j) in
    let greater = ref 0 in
    for i = 0 to j - 1 do
      if t.inv.(base + Perm.apply pi i) > v then incr greater
    done;
    if !greater < d then incr c
  done;
  !c

(* Row sums of the per-schedule columns, then their maximum. *)
let exact_max at psi =
  match psi with
  | [] -> 0
  | pi :: _ ->
    let n = Perm.size pi in
    if n > 8 then
      invalid_arg "Contention.*_exact: exhaustive search limited to n <= 8";
    ignore (check_sizes psi pi);
    let t = inverses n in
    let sum = Array.make t.orders 0 in
    List.iter
      (fun pi ->
        for r = 0 to t.orders - 1 do
          sum.(r) <- sum.(r) + at t pi r
        done)
      psi;
    Array.fold_left max min_int sum

let contention_exact psi = exact_max lrm_at psi

let d_contention_exact ~d psi =
  if d < 1 then invalid_arg "Contention.d_contention_exact: d must be >= 1";
  exact_max (d_lrm_at ~d) psi

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

let contention_estimate ?restarts ?samples ~rng psi =
  estimate contention_wrt ?restarts ?samples ~rng psi

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
