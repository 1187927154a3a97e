open Doall_perms
open Doall_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_two_processor_example () =
  (* Section 4's opening example: with psi = <id, reverse> and rho = id,
     the identity contributes n lrm's and the reverse contributes 1. *)
  let n = 6 in
  let psi = [ Perm.identity n; Perm.reverse n ] in
  check_int "Cont(psi, id)" (n + 1)
    (Contention.contention_wrt psi ~rho:(Perm.identity n))

let test_identity_list_worst () =
  (* all-identity list: against rho = id every schedule has n maxima. *)
  let n = 5 in
  let psi = Gen.identity_list ~n ~count:n in
  check_int "n^2 against id" (n * n)
    (Contention.contention_wrt psi ~rho:(Perm.identity n));
  check_int "exact = n^2" (n * n) (Contention.contention_exact psi)

let test_exact_bounds () =
  let rng = Rng.create 21 in
  for n = 2 to 5 do
    let psi = Gen.random_list ~rng ~n ~count:n in
    let c = Contention.contention_exact psi in
    check "n <= Cont" true (c >= n);
    check "Cont <= n^2" true (c <= n * n)
  done

let test_exact_is_max () =
  let rng = Rng.create 22 in
  let n = 4 in
  let psi = Gen.random_list ~rng ~n ~count:n in
  let exact = Contention.contention_exact psi in
  List.iter
    (fun rho ->
      check "exact dominates every rho" true
        (Contention.contention_wrt psi ~rho <= exact))
    (Perm.all n)

let test_estimate_sandwich () =
  let rng = Rng.create 23 in
  let n = 6 in
  let psi = Gen.random_list ~rng ~n ~count:n in
  let exact = Contention.contention_exact psi in
  let est = Contention.d_contention_estimate ~rng ~d:1 psi in
  check "estimate <= exact" true (est <= exact);
  check "estimate >= Cont(psi, id)" true
    (est >= Contention.contention_wrt psi ~rho:(Perm.identity n));
  (* Hill climbing over S_6 usually nails the max; accept near-misses. *)
  check "estimate close to exact" true (float_of_int est >= 0.85 *. float_of_int exact)

let test_d_contention_d1 () =
  let rng = Rng.create 24 in
  let n = 5 in
  let psi = Gen.random_list ~rng ~n ~count:n in
  List.iter
    (fun rho ->
      check_int "d=1 contention = contention"
        (Contention.contention_wrt psi ~rho)
        (Contention.d_contention_wrt ~d:1 psi ~rho))
    (Perm.all n)

let test_d_contention_saturates () =
  let rng = Rng.create 25 in
  let n = 5 in
  let psi = Gen.random_list ~rng ~n ~count:n in
  check_int "d>=n gives n per schedule" (n * n)
    (Contention.d_contention_exact ~d:n psi)

let test_d_contention_monotone_in_d () =
  let rng = Rng.create 26 in
  let n = 5 in
  let psi = Gen.random_list ~rng ~n ~count:n in
  let prev = ref 0 in
  for d = 1 to n do
    let c = Contention.d_contention_exact ~d psi in
    check "monotone" true (c >= !prev);
    prev := c
  done

let test_harmonic () =
  (* Lemma 4.1's bound is 3 n H_n *)
  let h n = Contention.bound_lemma_4_1 n /. (3.0 *. float_of_int n) in
  check "H_1" true (abs_float (h 1 -. 1.0) < 1e-9);
  check "H_2" true (abs_float (h 2 -. 1.5) < 1e-9);
  check "H_4" true (abs_float (h 4 -. (25.0 /. 12.0)) < 1e-9)

let test_bound_lemma41 () =
  check "3nHn for n=4" true
    (abs_float (Contention.bound_lemma_4_1 4 -. (3.0 *. 4.0 *. (25.0 /. 12.0)))
     < 1e-9)

let test_random_list_meets_whp_bound () =
  (* Theorem 4.4's event for random lists, tested at n=p=40 and several d:
     the d-contention w.r.t. a handful of adversarial-ish rhos stays under
     n ln n + 8 p d ln(e + n/d). (Full max is intractable; the sampled
     value lower-bounds it but the w.h.p. statement is about the max — we
     check the bound on the estimate, which must then also hold.) *)
  let n = 40 in
  let rng = Rng.create 27 in
  let psi = Gen.random_list ~rng ~n ~count:n in
  List.iter
    (fun d ->
      let est =
        Contention.d_contention_estimate ~restarts:2 ~samples:16 ~rng ~d psi
      in
      let bound = Contention.bound_theorem_4_4 ~n ~p:n ~d in
      check
        (Printf.sprintf "d=%d estimate %d under bound %.0f" d est bound)
        true
        (float_of_int est <= bound))
    [ 1; 2; 4; 8 ]

let test_empty_list () =
  check_int "empty list" 0 (Contention.contention_exact [])

let test_size_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Contention: size mismatch between list and rho")
    (fun () ->
      ignore
        (Contention.contention_wrt [ Perm.identity 3 ] ~rho:(Perm.identity 4)))

let prop_profile_matches_per_d =
  QCheck2.Test.make ~name:"d-contention profile agrees per d" ~count:100
    QCheck2.Gen.(pair (int_range 2 10) (int_range 1 5))
    (fun (n, count) ->
      let rng = Rng.create ((n * 11) + count) in
      let psi = Gen.random_list ~rng ~n ~count in
      let rho = Perm.random rng n in
      let profile = Contention.d_contention_profile_wrt psi ~rho in
      List.for_all
        (fun d -> profile.(d) = Contention.d_contention_wrt ~d psi ~rho)
        (List.init n (fun i -> i + 1)))

let prop_conjugation_keeps_range =
  QCheck2.Test.make ~name:"contention_wrt stays within [count, count*n]"
    ~count:100
    QCheck2.Gen.(pair (int_range 2 8) (int_range 1 6))
    (fun (n, count) ->
      let rng = Rng.create ((n * 7) + count) in
      let psi = Gen.random_list ~rng ~n ~count in
      let rho = Perm.random rng n in
      let c = Contention.d_contention_wrt ~d:1 psi ~rho in
      c >= count && c <= count * n)

(* The exact paths (the subset recurrence and Search's incremental
   table) against the plain definition: max over S_n of the per-rho
   sums. *)
let prop_exact_matches_reference =
  QCheck2.Test.make ~name:"exact Cont, (d)-Cont and improve match max over S_n"
    ~count:60
    QCheck2.Gen.(
      int_range 1 7 >>= fun n ->
      map3
        (fun count d seed -> (n, count, d, seed))
        (int_range 1 8) (int_range 1 n) (int_bound 10_000))
    (fun (n, count, d, seed) ->
      let rng = Rng.create seed in
      let psi = Gen.random_list ~rng ~n ~count in
      let reference eval psi =
        let n = Perm.size (List.hd psi) in
        List.fold_left (fun m rho -> max m (eval psi ~rho)) min_int (Perm.all n)
      in
      (* one attempt always certifies: Cont <= n^2 <= 3 n H_n for n <= 8 *)
      let cert =
        Search.certified ~attempts:1 ~local_steps:20 ~rng (max 2 n)
      in
      let improved = cert.Search.list and c = cert.Search.contention in
      Contention.contention_exact psi = reference Contention.contention_wrt psi
      && Contention.d_contention_exact ~d psi
         = reference (Contention.d_contention_wrt ~d) psi
      && c = Contention.contention_exact improved
      && c = reference Contention.contention_wrt improved)

(* max over S_n of the per-rho profile: (d)-Cont(psi) for every d at
   once, straight from the definition. *)
let profile_max n psi =
  let best = Array.make (n + 1) 0 in
  List.iter
    (fun rho ->
      let prof = Contention.d_contention_profile_wrt psi ~rho in
      for d = 1 to n do
        if prof.(d) > best.(d) then best.(d) <- prof.(d)
      done)
    (Perm.all n);
  best

(* The qcheck property above stops at n = 7; the exact path at n = 8,
   every d, against one pass over all of S_8. *)
let test_exact_n8_matches_definition () =
  let n = 8 in
  List.iter
    (fun (name, psi) ->
      let best = profile_max n psi in
      check_int (name ^ ": Cont") best.(1) (Contention.contention_exact psi);
      for d = 1 to n do
        check_int
          (Printf.sprintf "%s: (%d)-Cont" name d)
          best.(d)
          (Contention.d_contention_exact ~d psi)
      done;
      if name = "all-identity" then
        Array.iteri
          (fun d c -> if d >= 1 then check_int "all-identity is n^2" 64 c)
          best)
    [
      ("all-identity", Gen.identity_list ~n ~count:n);
      ("identity/reverse", [ Perm.identity n; Perm.reverse n ]);
      ("DA(8) list", Doall_core.Algo_da.default_psi ~q:n);
    ]

(* 200 steps at n = 8 reject some swaps, so the value the local search
   returns is only right if every rejected step restored its table
   exactly. One attempt starts from the first list the seed draws. *)
let test_improve_n8_exact () =
  let n = 8 in
  let psi = Gen.random_list ~rng:(Rng.create 88) ~n ~count:n in
  let before = Contention.contention_exact psi in
  let cert =
    Search.certified ~attempts:1 ~local_steps:200 ~rng:(Rng.create 88) n
  in
  let improved = cert.Search.list and c = cert.Search.contention in
  check "never worse" true (c <= before);
  check_int "improve's value = exact Cont of its list"
    (Contention.contention_exact improved)
    c;
  check_int "= max over S_8" (profile_max n improved).(1) c

let suite =
  [
    Alcotest.test_case "two-processor example" `Quick
      test_two_processor_example;
    Alcotest.test_case "identity list is worst" `Quick
      test_identity_list_worst;
    Alcotest.test_case "exact within [n, n^2]" `Quick test_exact_bounds;
    Alcotest.test_case "exact dominates each rho" `Quick test_exact_is_max;
    Alcotest.test_case "estimate sandwiched" `Quick test_estimate_sandwich;
    Alcotest.test_case "d=1 contention = contention" `Quick
      test_d_contention_d1;
    Alcotest.test_case "d >= n saturates" `Quick test_d_contention_saturates;
    Alcotest.test_case "d-contention monotone in d" `Quick
      test_d_contention_monotone_in_d;
    Alcotest.test_case "harmonic numbers" `Quick test_harmonic;
    Alcotest.test_case "Lemma 4.1 bound value" `Quick test_bound_lemma41;
    Alcotest.test_case "random lists meet Theorem 4.4 bound" `Quick
      test_random_list_meets_whp_bound;
    Alcotest.test_case "empty list" `Quick test_empty_list;
    Alcotest.test_case "size mismatch rejected" `Quick test_size_mismatch;
    Alcotest.test_case "exact at n = 8 = max over S_8, every d" `Quick
      test_exact_n8_matches_definition;
    Alcotest.test_case "improve at n = 8 keeps an exact value" `Quick
      test_improve_n8_exact;
    QCheck_alcotest.to_alcotest prop_profile_matches_per_d;
    QCheck_alcotest.to_alcotest prop_conjugation_keeps_range;
    QCheck_alcotest.to_alcotest prop_exact_matches_reference;
  ]
