open Doall_perms
open Doall_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_random_list_shape () =
  let rng = Rng.create 31 in
  let psi = Gen.random_list ~rng ~n:7 ~count:4 in
  check_int "count" 4 (List.length psi);
  List.iter (fun pi -> check_int "size" 7 (Perm.size pi)) psi

let test_seeded_list_deterministic () =
  let a = Gen.seeded_list ~seed:99 ~n:8 ~count:5 in
  let b = Gen.seeded_list ~seed:99 ~n:8 ~count:5 in
  check "same seed, same list" true (List.for_all2 ( = ) a b);
  let c = Gen.seeded_list ~seed:100 ~n:8 ~count:5 in
  check "different seed, different list" false (List.for_all2 ( = ) a c)

let test_rotation_list () =
  let psi = List.init 4 (Perm.rotation 4) in
  List.iteri
    (fun u pi ->
      check_int (Printf.sprintf "pi_%d(0)" u) u (Perm.apply pi 0))
    psi

let test_exhaustive_n2 () =
  let cert = Search.exhaustive 2 in
  check_int "two schedules" 2 (List.length cert.Search.list);
  (* Optimum for n=2 is <id, reverse> or symmetric: contention 3. *)
  check_int "optimal contention" 3 cert.Search.contention

let test_exhaustive_n3 () =
  let cert = Search.exhaustive 3 in
  check_int "three schedules" 3 (List.length cert.Search.list);
  check "meets Lemma 4.1 bound" true
    (float_of_int cert.Search.contention <= cert.Search.bound);
  (* sanity: strictly better than the all-identity list (contention 9) *)
  check "beats identity list" true (cert.Search.contention < 9);
  let found = Search.certified ~rng:(Rng.create 3) 3 in
  check "no certified list beats the optimum" true
    (found.Search.contention >= cert.Search.contention)

let test_certified_range () =
  let rng = Rng.create 32 in
  List.iter
    (fun n ->
      let cert = Search.certified ~rng n in
      check_int "list length" n (List.length cert.Search.list);
      check "certified under bound" true
        (float_of_int cert.Search.contention <= cert.Search.bound);
      check_int "exact recomputation agrees" cert.Search.contention
        (Contention.contention_exact cert.Search.list))
    [ 2; 3; 4; 5; 6; 7; 8 ]

(* The lists DA(q) runs with: [Search.certified] under the seed
   [Algo_da.default_psi] uses. Any change to the search or to contention
   evaluation that alters them changes every DA result. *)
let da_lists =
  [
    (2, 3, [ [ 1; 0 ]; [ 0; 1 ] ]);
    (3, 6, [ [ 2; 1; 0 ]; [ 1; 0; 2 ]; [ 0; 1; 2 ] ]);
    (4, 9, [ [ 2; 1; 3; 0 ]; [ 0; 3; 2; 1 ]; [ 3; 1; 2; 0 ]; [ 1; 0; 2; 3 ] ]);
    ( 5,
      13,
      [
        [ 0; 4; 2; 1; 3 ];
        [ 3; 1; 2; 0; 4 ];
        [ 2; 0; 3; 1; 4 ];
        [ 4; 1; 0; 3; 2 ];
        [ 1; 3; 4; 0; 2 ];
      ] );
    ( 6,
      18,
      [
        [ 5; 1; 0; 4; 3; 2 ];
        [ 1; 3; 5; 4; 2; 0 ];
        [ 0; 3; 2; 4; 5; 1 ];
        [ 2; 4; 1; 0; 3; 5 ];
        [ 5; 3; 0; 2; 1; 4 ];
        [ 4; 2; 3; 5; 0; 1 ];
      ] );
    ( 7,
      23,
      [
        [ 0; 5; 3; 4; 2; 1; 6 ];
        [ 2; 4; 6; 5; 0; 1; 3 ];
        [ 4; 3; 6; 0; 5; 1; 2 ];
        [ 0; 6; 1; 2; 3; 4; 5 ];
        [ 5; 3; 2; 1; 6; 4; 0 ];
        [ 1; 6; 4; 5; 0; 3; 2 ];
        [ 2; 6; 1; 3; 0; 5; 4 ];
      ] );
    ( 8,
      28,
      [
        [ 4; 5; 6; 7; 3; 1; 0; 2 ];
        [ 2; 5; 4; 7; 3; 6; 0; 1 ];
        [ 2; 1; 3; 6; 0; 4; 5; 7 ];
        [ 6; 0; 2; 7; 4; 5; 1; 3 ];
        [ 3; 5; 2; 1; 0; 6; 4; 7 ];
        [ 6; 4; 1; 3; 2; 0; 5; 7 ];
        [ 7; 0; 1; 6; 5; 4; 3; 2 ];
        [ 7; 4; 3; 0; 6; 1; 2; 5 ];
      ] );
  ]

let test_da_lists_pinned () =
  List.iter
    (fun (q, cont, expected) ->
      let cert = Search.certified ~rng:(Rng.create (0xDA5EED + q)) q in
      check_int (Printf.sprintf "q=%d contention" q) cont cert.Search.contention;
      Alcotest.(check (list (list int)))
        (Printf.sprintf "q=%d list" q)
        expected
        (List.map (fun pi -> Array.to_list (Perm.to_array pi)) cert.Search.list);
      check
        (Printf.sprintf "q=%d is Algo_da.default_psi" q)
        true
        (List.for_all2 ( = ) cert.Search.list
           (Doall_core.Algo_da.default_psi ~q)))
    da_lists

let test_certified_beats_or_ties_random () =
  let rng = Rng.create 33 in
  let n = 4 in
  let cert = Search.certified ~rng n in
  let random_cont =
    Contention.contention_exact (Gen.random_list ~rng ~n ~count:n)
  in
  check "search at least as good as one random draw" true
    (cert.Search.contention <= random_cont)

let test_improve_never_worsens () =
  (* one attempt starts from the first list the seed draws *)
  let n = 5 in
  let psi0 = Gen.random_list ~rng:(Rng.create 34) ~n ~count:n in
  let before = Contention.contention_exact psi0 in
  let cert =
    Search.certified ~attempts:1 ~local_steps:100 ~rng:(Rng.create 34) n
  in
  check "improve monotone" true (cert.Search.contention <= before)

let test_certified_bad_n () =
  let rng = Rng.create 35 in
  Alcotest.check_raises "n too large"
    (Invalid_argument "Search.certified: requires 2 <= n <= 8") (fun () ->
      ignore (Search.certified ~rng 9))

let suite =
  [
    Alcotest.test_case "random list shape" `Quick test_random_list_shape;
    Alcotest.test_case "seeded list deterministic" `Quick
      test_seeded_list_deterministic;
    Alcotest.test_case "rotation list" `Quick test_rotation_list;
    Alcotest.test_case "exhaustive n=2 optimum" `Quick test_exhaustive_n2;
    Alcotest.test_case "exhaustive n=3" `Quick test_exhaustive_n3;
    Alcotest.test_case "certified for n=2..8" `Quick test_certified_range;
    Alcotest.test_case "DA(q) lists pinned for q=2..8" `Quick
      test_da_lists_pinned;
    Alcotest.test_case "certified vs random draw" `Quick
      test_certified_beats_or_ties_random;
    Alcotest.test_case "improve never worsens" `Quick
      test_improve_never_worsens;
    Alcotest.test_case "certified rejects bad n" `Quick test_certified_bad_n;
  ]
