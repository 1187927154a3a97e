open Doall_perms
open Doall_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let perm = Alcotest.testable (Fmt.of_to_string (fun p ->
    String.concat " " (List.map string_of_int (Array.to_list (Perm.to_array p)))))
    ( = )

let test_identity () =
  let id = Perm.identity 5 in
  for i = 0 to 4 do
    check_int "id(i)=i" i (Perm.apply id i)
  done

let test_reverse () =
  let r = Perm.reverse 4 in
  Alcotest.(check (array int)) "reverse" [| 3; 2; 1; 0 |] (Perm.to_array r)

let test_rotation () =
  let r = Perm.rotation 5 2 in
  Alcotest.(check (array int)) "rotation" [| 2; 3; 4; 0; 1 |] (Perm.to_array r);
  Alcotest.check perm "rotation 0 = id" (Perm.identity 5) (Perm.rotation 5 0);
  Alcotest.check perm "rotation n = id" (Perm.identity 5) (Perm.rotation 5 5);
  Alcotest.check perm "negative wraps" (Perm.rotation 5 3) (Perm.rotation 5 (-2))

let test_of_array_validation () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Perm.of_array: not a permutation") (fun () ->
      ignore (Perm.of_array [| 0; 0; 1 |]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Perm.of_array: not a permutation") (fun () ->
      ignore (Perm.of_array [| 0; 3 |]))

let test_of_array_copies () =
  let a = [| 1; 0 |] in
  let p = Perm.of_array a in
  a.(0) <- 0;
  check_int "inner copy" 1 (Perm.apply p 0)

let test_compose () =
  let a = Perm.of_array [| 1; 2; 0 |] in
  let b = Perm.of_array [| 2; 0; 1 |] in
  (* (a o b)(i) = a(b(i)) *)
  Alcotest.(check (array int)) "compose" [| 0; 1; 2 |]
    (Perm.to_array (Perm.compose a b))

let test_inverse () =
  let a = Perm.of_array [| 2; 0; 3; 1 |] in
  Alcotest.check perm "a o a^-1 = id" (Perm.identity 4)
    (Perm.compose a (Perm.inverse a));
  Alcotest.check perm "a^-1 o a = id" (Perm.identity 4)
    (Perm.compose (Perm.inverse a) a)

let test_all_count () =
  check_int "0! lists" 1 (List.length (Perm.all 0));
  check_int "3!" 6 (List.length (Perm.all 3));
  check_int "5!" 120 (List.length (Perm.all 5))

let test_all_distinct () =
  let perms = Perm.all 4 in
  let as_lists = List.map (fun p -> Array.to_list (Perm.to_array p)) perms in
  check_int "all distinct" 24 (List.length (List.sort_uniq compare as_lists))

let test_all_lexicographic () =
  match Perm.all 3 with
  | first :: _ ->
    Alcotest.check perm "starts at identity" (Perm.identity 3) first
  | [] -> Alcotest.fail "empty"

let prop_random_valid =
  QCheck2.Test.make ~name:"random permutations are valid" ~count:200
    QCheck2.Gen.(int_range 1 50)
    (fun n ->
      let rng = Rng.create n in
      let a = Perm.to_array (Perm.random rng n) in
      List.sort compare (Array.to_list a) = List.init n Fun.id)

let prop_compose_assoc =
  QCheck2.Test.make ~name:"composition associative" ~count:100
    QCheck2.Gen.(int_range 1 20)
    (fun n ->
      let rng = Rng.create (n * 31) in
      let a = Perm.random rng n
      and b = Perm.random rng n
      and c = Perm.random rng n in
      Perm.compose (Perm.compose a b) c
      = Perm.compose a (Perm.compose b c))

let prop_inverse_involutive =
  QCheck2.Test.make ~name:"inverse of inverse" ~count:100
    QCheck2.Gen.(int_range 1 30)
    (fun n ->
      let rng = Rng.create (n * 17) in
      let a = Perm.random rng n in
      a = Perm.inverse (Perm.inverse a))

let suite =
  [
    Alcotest.test_case "identity" `Quick test_identity;
    Alcotest.test_case "reverse" `Quick test_reverse;
    Alcotest.test_case "rotation" `Quick test_rotation;
    Alcotest.test_case "of_array validates" `Quick test_of_array_validation;
    Alcotest.test_case "of_array copies" `Quick test_of_array_copies;
    Alcotest.test_case "compose" `Quick test_compose;
    Alcotest.test_case "inverse" `Quick test_inverse;
    Alcotest.test_case "all: count" `Quick test_all_count;
    Alcotest.test_case "all: distinct" `Quick test_all_distinct;
    Alcotest.test_case "all: lexicographic start" `Quick
      test_all_lexicographic;
    QCheck_alcotest.to_alcotest prop_random_valid;
    QCheck_alcotest.to_alcotest prop_compose_assoc;
    QCheck_alcotest.to_alcotest prop_inverse_involutive;
  ]
