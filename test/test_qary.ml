open Doall_perms

let check_int = Alcotest.(check int)
let check = Alcotest.(check bool)

let test_digits_example () =
  (* 11 in base 3 = 102 -> little-endian [2; 0; 1] *)
  Alcotest.(check (array int)) "11 base 3" [| 2; 0; 1 |]
    (Qary.digits ~q:3 ~width:3 11)

let test_digits_padding () =
  Alcotest.(check (array int)) "padded" [| 1; 0; 0; 0 |]
    (Qary.digits ~q:2 ~width:4 1)

let test_digits_truncation () =
  (* width smaller than needed keeps only low digits *)
  Alcotest.(check (array int)) "truncated" [| 1; 1 |]
    (Qary.digits ~q:2 ~width:2 7)

(* recompose little-endian base-[q] digits *)
let of_digits ~q a = Array.fold_right (fun dgt acc -> (acc * q) + dgt) a 0

let test_roundtrip () =
  for q = 2 to 5 do
    for v = 0 to 200 do
      check_int "roundtrip" v (of_digits ~q (Qary.digits ~q ~width:8 v))
    done
  done

let test_digit_accessor () =
  let a = Qary.digits ~q:3 ~width:6 11 in
  check_int "digit 0 of 11 base 3" 2 a.(0);
  check_int "digit 1 of 11 base 3" 0 a.(1);
  check_int "digit 2 of 11 base 3" 1 a.(2);
  check_int "digit 5 of 11 base 3" 0 a.(5)

let test_validation () =
  Alcotest.check_raises "q=1" (Invalid_argument "Qary: q must be >= 2")
    (fun () -> ignore (Qary.digits ~q:1 ~width:2 0))

(* 17 digits hold every value below 2^17 > 100000 in any base >= 2 *)
let prop_digits_in_range =
  QCheck2.Test.make ~name:"digits always in [0, q)" ~count:300
    QCheck2.Gen.(pair (int_range 2 9) (int_range 0 100000))
    (fun (q, v) ->
      Array.for_all (fun dgt -> dgt >= 0 && dgt < q) (Qary.digits ~q ~width:17 v))

let prop_digit_matches_digits =
  QCheck2.Test.make ~name:"digit agrees with digits array" ~count:300
    QCheck2.Gen.(pair (int_range 2 9) (int_range 0 100000))
    (fun (q, v) ->
      let a = Qary.digits ~q ~width:17 v in
      let rec digit v m = if m = 0 then v mod q else digit (v / q) (m - 1) in
      List.for_all (fun m -> a.(m) = digit v m) (List.init 17 Fun.id))

let suite =
  [
    Alcotest.test_case "digits example" `Quick test_digits_example;
    Alcotest.test_case "digits padding" `Quick test_digits_padding;
    Alcotest.test_case "digits truncation" `Quick test_digits_truncation;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "digit accessor" `Quick test_digit_accessor;
    Alcotest.test_case "validation" `Quick test_validation;
    QCheck_alcotest.to_alcotest prop_digits_in_range;
    QCheck_alcotest.to_alcotest prop_digit_matches_digits;
  ]
