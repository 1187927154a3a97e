open Doall_core
open Doall_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_shape_exact_power () =
  let sh = Progress_tree.shape ~q:2 ~jobs:8 in
  check_int "height" 3 sh.Progress_tree.h;
  check_int "leaves" 8 sh.Progress_tree.leaves;
  check_int "size" 15 sh.Progress_tree.size;
  check_int "first leaf" 7 sh.Progress_tree.first_leaf

let test_shape_padding () =
  let sh = Progress_tree.shape ~q:3 ~jobs:5 in
  check_int "leaves rounded to 9" 9 sh.Progress_tree.leaves;
  check_int "height" 2 sh.Progress_tree.h;
  check_int "size 1+3+9" 13 sh.Progress_tree.size

let test_single_job () =
  let sh = Progress_tree.shape ~q:4 ~jobs:1 in
  check_int "height 0" 0 sh.Progress_tree.h;
  check_int "one node" 1 sh.Progress_tree.size;
  check "root is leaf" true (Progress_tree.is_leaf sh Progress_tree.root)

let test_children_and_parent () =
  let sh = Progress_tree.shape ~q:3 ~jobs:9 in
  for v = 0 to sh.Progress_tree.first_leaf - 1 do
    for j = 0 to 2 do
      let c = Progress_tree.child sh v j in
      check_int "parent of child" v ((c - 1) / 3);
      check_int "child one level down" (Progress_tree.depth sh v + 1)
        (Progress_tree.depth sh c)
    done
  done

let test_depth () =
  let sh = Progress_tree.shape ~q:2 ~jobs:8 in
  check_int "root depth" 0 (Progress_tree.depth sh 0);
  check_int "leaf depth" 3 (Progress_tree.depth sh sh.Progress_tree.first_leaf);
  check_int "mid depth" 1 (Progress_tree.depth sh 1)

let test_leaf_job_roundtrip () =
  let sh = Progress_tree.shape ~q:3 ~jobs:7 in
  for j = 0 to 6 do
    check_int "roundtrip" j
      (Progress_tree.job_of_leaf sh (sh.Progress_tree.first_leaf + j))
  done

let test_dummy_leaves () =
  let sh = Progress_tree.shape ~q:3 ~jobs:7 in
  check_int "leaf 6 is real" 6
    (Progress_tree.job_of_leaf sh (sh.Progress_tree.first_leaf + 6));
  List.iter
    (fun k ->
      Alcotest.check_raises
        (Printf.sprintf "leaf %d is dummy" k)
        (Invalid_argument "Progress_tree.job_of_leaf: dummy leaf") (fun () ->
          ignore (Progress_tree.job_of_leaf sh (sh.Progress_tree.first_leaf + k))))
    [ 7; 8 ]

let test_initial_marks () =
  let sh = Progress_tree.shape ~q:2 ~jobs:5 in
  (* 8 leaves, 3 dummy *)
  let marks = Progress_tree.initial_marks sh in
  for j = 0 to 4 do
    check "real leaves unmarked" false
      (Bitset.mem marks (sh.Progress_tree.first_leaf + j))
  done;
  for k = 5 to 7 do
    check "dummy leaves marked" true
      (Bitset.mem marks (sh.Progress_tree.first_leaf + k))
  done;
  check "root unmarked" false (Bitset.mem marks 0)

let test_initial_marks_interior_closure () =
  (* q=2, jobs=5 of 8 leaves: leaves 5..7 are dummy; the subtree over
     leaves {6,7} is all-dummy, so its root must be pre-marked, while the
     subtree over {4,5} (one real leaf) must not be. *)
  let sh = Progress_tree.shape ~q:2 ~jobs:5 in
  let marks = Progress_tree.initial_marks sh in
  let right = Progress_tree.child sh 0 1 in
  let over67 = Progress_tree.child sh right 1 in
  let over45 = Progress_tree.child sh right 0 in
  check "all-dummy subtree root marked" true (Bitset.mem marks over67);
  check "half-real subtree unmarked" false (Bitset.mem marks over45);
  check "root unmarked" false (Bitset.mem marks 0)

let test_subtree_jobs () =
  let sh = Progress_tree.shape ~q:2 ~jobs:6 in
  Alcotest.(check (list int)) "root covers all jobs" [ 0; 1; 2; 3; 4; 5 ]
    (List.sort compare (Progress_tree.subtree_jobs sh 0));
  let right = Progress_tree.child sh 0 1 in
  Alcotest.(check (list int)) "right subtree jobs" [ 4; 5 ]
    (List.sort compare (Progress_tree.subtree_jobs sh right))

let test_validation () =
  Alcotest.check_raises "q too small"
    (Invalid_argument "Progress_tree.shape: q >= 2") (fun () ->
      ignore (Progress_tree.shape ~q:1 ~jobs:4));
  let sh = Progress_tree.shape ~q:2 ~jobs:4 in
  Alcotest.check_raises "child of leaf"
    (Invalid_argument "Progress_tree.child: leaf has no children") (fun () ->
      ignore (Progress_tree.child sh sh.Progress_tree.first_leaf 0))

let prop_shape_consistent =
  QCheck2.Test.make ~name:"shape arithmetic consistent" ~count:200
    QCheck2.Gen.(pair (int_range 2 6) (int_range 1 500))
    (fun (q, jobs) ->
      let sh = Progress_tree.shape ~q ~jobs in
      let pow_h =
        let rec go acc k = if k = 0 then acc else go (acc * q) (k - 1) in
        go 1 sh.Progress_tree.h
      in
      sh.Progress_tree.leaves = pow_h
      && sh.Progress_tree.leaves >= jobs
      && (sh.Progress_tree.h = 0 || sh.Progress_tree.leaves / q < jobs)
      && sh.Progress_tree.size
         = sh.Progress_tree.first_leaf + sh.Progress_tree.leaves)

let prop_leaves_have_no_children_in_range =
  QCheck2.Test.make ~name:"node classification consistent" ~count:100
    QCheck2.Gen.(pair (int_range 2 5) (int_range 1 100))
    (fun (q, jobs) ->
      let sh = Progress_tree.shape ~q ~jobs in
      List.for_all
        (fun v ->
          if Progress_tree.is_leaf sh v then true
          else
            List.for_all
              (fun j ->
                let c = Progress_tree.child sh v j in
                c > v && c < sh.Progress_tree.size)
              (List.init q Fun.id))
        (List.init sh.Progress_tree.size Fun.id))

let suite =
  [
    Alcotest.test_case "shape: exact power" `Quick test_shape_exact_power;
    Alcotest.test_case "shape: padding" `Quick test_shape_padding;
    Alcotest.test_case "single job tree" `Quick test_single_job;
    Alcotest.test_case "children/parent" `Quick test_children_and_parent;
    Alcotest.test_case "depth" `Quick test_depth;
    Alcotest.test_case "leaf/job roundtrip" `Quick test_leaf_job_roundtrip;
    Alcotest.test_case "dummy leaves" `Quick test_dummy_leaves;
    Alcotest.test_case "initial marks" `Quick test_initial_marks;
    Alcotest.test_case "initial marks: interior closure" `Quick
      test_initial_marks_interior_closure;
    Alcotest.test_case "subtree jobs" `Quick test_subtree_jobs;
    Alcotest.test_case "validation" `Quick test_validation;
    QCheck_alcotest.to_alcotest prop_shape_consistent;
    QCheck_alcotest.to_alcotest prop_leaves_have_no_children_in_range;
  ]
