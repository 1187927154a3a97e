open Doall_perms
open Doall_sim

let check_int = Alcotest.(check int)
let check = Alcotest.(check bool)

let test_identity_all_lrm () =
  (* every element of the identity is a new maximum *)
  check_int "lrm(id_6)" 6 (Lrm.lrm (Perm.identity 6))

let test_reverse_single_lrm () =
  check_int "lrm(reverse_6)" 1 (Lrm.lrm (Perm.reverse 6))

let test_knuth_example () =
  (* <1, 0, 3, 2, 5, 4>: maxima at values 1, 3, 5 *)
  check_int "interleaved" 3 (Lrm.lrm (Perm.of_array [| 1; 0; 3; 2; 5; 4 |]))

let test_singleton () =
  check_int "lrm of single" 1 (Lrm.lrm (Perm.identity 1))

let test_d1_equals_lrm () =
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    let p = Perm.random rng 12 in
    check_int "d=1 coincides with lrm" (Lrm.lrm p) (Lrm.d_lrm ~d:1 p)
  done

let test_dn_counts_all () =
  let rng = Rng.create 6 in
  for n = 1 to 12 do
    let p = Perm.random rng n in
    check_int "d=n counts everything" n (Lrm.d_lrm ~d:n p)
  done

let test_d_lrm_example () =
  (* pi = <3, 4, 0, 1, 2>.
     d=1: 3,4 are lrm -> 2.
     d=2: 3,4 qualify; 0 has two greater before (3,4) -> not; 1 likewise; 2
     likewise -> 2.
     d=3: now 0,1,2 each have exactly 2 greater before (< 3) -> all -> 5. *)
  let p = Perm.of_array [| 3; 4; 0; 1; 2 |] in
  check_int "d=1" 2 (Lrm.d_lrm ~d:1 p);
  check_int "d=2" 2 (Lrm.d_lrm ~d:2 p);
  check_int "d=3" 5 (Lrm.d_lrm ~d:3 p)

let test_reverse_d_lrm () =
  (* reverse order: element at position j has j greater predecessors, so
     exactly the first d positions are d-lrm. *)
  let p = Perm.reverse 10 in
  for d = 1 to 10 do
    check_int "first d positions" d (Lrm.d_lrm ~d p)
  done

let test_d_requires_positive () =
  Alcotest.check_raises "d=0" (Invalid_argument "Lrm.d_lrm: d must be >= 1")
    (fun () -> ignore (Lrm.d_lrm ~d:0 (Perm.identity 3)))

let test_greater_before () =
  (* 0, 0, 2, 2, 2 earlier elements exceed each position: a position
     is a d-lrm iff its count is below d *)
  let prof = Lrm.d_lrm_profile (Perm.of_array [| 3; 4; 0; 1; 2 |]) in
  Alcotest.(check (array int)) "counts" [| 0; 2; 2; 5; 5; 5 |] prof

let prop_profile_matches_per_d =
  QCheck2.Test.make ~name:"d-lrm profile agrees with per-d computation"
    ~count:200
    QCheck2.Gen.(int_range 1 25)
    (fun n ->
      let rng = Rng.create (n * 97) in
      let p = Perm.random rng n in
      let profile = Lrm.d_lrm_profile p in
      profile.(0) = 0
      && List.for_all
           (fun d -> profile.(d) = Lrm.d_lrm ~d p)
           (List.init n (fun i -> i + 1)))

let prop_monotone_in_d =
  QCheck2.Test.make ~name:"d-lrm monotone in d" ~count:200
    QCheck2.Gen.(int_range 1 30)
    (fun n ->
      let rng = Rng.create (n * 13) in
      let p = Perm.random rng n in
      let prev = ref 0 in
      List.for_all
        (fun d ->
          let v = Lrm.d_lrm ~d p in
          let ok = v >= !prev in
          prev := v;
          ok)
        (List.init n (fun i -> i + 1)))

let prop_bounds =
  QCheck2.Test.make ~name:"1 <= lrm <= n; d <= d-lrm <= n" ~count:200
    QCheck2.Gen.(pair (int_range 1 30) (int_range 1 10))
    (fun (n, d) ->
      let rng = Rng.create ((n * 100) + d) in
      let p = Perm.random rng n in
      let l = Lrm.lrm p in
      let dl = Lrm.d_lrm ~d:(min d n) p in
      l >= 1 && l <= n && dl >= min d n && dl <= n)

let prop_first_d_always_dlrm =
  QCheck2.Test.make ~name:"first d elements are always d-lrm" ~count:200
    QCheck2.Gen.(pair (int_range 2 25) (int_range 1 8))
    (fun (n, d) ->
      let rng = Rng.create ((n * 37) + d) in
      let p = Perm.random rng n in
      let d = min d n in
      Lrm.d_lrm ~d p >= d)

let prop_brute_force_agreement =
  QCheck2.Test.make ~name:"d-lrm agrees with O(n^2) definition" ~count:300
    QCheck2.Gen.(pair (int_range 1 12) (int_range 1 12))
    (fun (n, d) ->
      let rng = Rng.create ((n * 1009) + d) in
      let p = Perm.random rng n in
      let arr = Perm.to_array p in
      let brute = ref 0 in
      for j = 0 to n - 1 do
        let greater_before = ref 0 in
        for i = 0 to j - 1 do
          if arr.(i) > arr.(j) then incr greater_before
        done;
        if !greater_before < d then incr brute
      done;
      Lrm.d_lrm ~d p = !brute)

let suite =
  [
    Alcotest.test_case "identity: n maxima" `Quick test_identity_all_lrm;
    Alcotest.test_case "reverse: 1 maximum" `Quick test_reverse_single_lrm;
    Alcotest.test_case "interleaved example" `Quick test_knuth_example;
    Alcotest.test_case "singleton" `Quick test_singleton;
    Alcotest.test_case "d=1 equals lrm" `Quick test_d1_equals_lrm;
    Alcotest.test_case "d=n counts all" `Quick test_dn_counts_all;
    Alcotest.test_case "worked d-lrm example" `Quick test_d_lrm_example;
    Alcotest.test_case "reverse d-lrm" `Quick test_reverse_d_lrm;
    Alcotest.test_case "d must be positive" `Quick test_d_requires_positive;
    Alcotest.test_case "greater_before" `Quick test_greater_before;
    QCheck_alcotest.to_alcotest prop_profile_matches_per_d;
    QCheck_alcotest.to_alcotest prop_monotone_in_d;
    QCheck_alcotest.to_alcotest prop_first_d_always_dlrm;
    QCheck_alcotest.to_alcotest prop_brute_force_agreement;
    QCheck_alcotest.to_alcotest prop_bounds;
  ]
