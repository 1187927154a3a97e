open Doall_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  check "different seeds give different streams" true !differs

let test_copy_equal_stream () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy replays" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_split_decorrelates () =
  let a = Rng.create 9 in
  let child = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 child then incr same
  done;
  check "split stream differs from parent" true (!same < 4)

let test_int_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check "in range" true (v >= 0 && v < 17)
  done

let test_int_bad_bound () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_covers_all () =
  let rng = Rng.create 4 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 5) <- true
  done;
  check "all values hit" true (Array.for_all Fun.id seen)

let test_int_roughly_uniform () =
  let rng = Rng.create 5 in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let v = Rng.int rng 4 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      check "within 5% of expectation" true
        (abs (c - (n / 4)) < n / 20))
    counts

let test_float_range () =
  let rng = Rng.create 6 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    check "float in range" true (v >= 0.0 && v < 2.5)
  done

let test_bool_balance () =
  let rng = Rng.create 8 in
  let trues = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.bool rng then incr trues
  done;
  check "roughly balanced" true (abs (!trues - (n / 2)) < n / 20)

let test_permutation_valid () =
  let rng = Rng.create 11 in
  for n = 1 to 30 do
    let p = Rng.permutation rng n in
    let sorted = Array.copy p in
    Array.sort compare sorted;
    Alcotest.(check (array int)) "is a permutation"
      (Array.init n Fun.id) sorted
  done

let test_shuffle_preserves_multiset () =
  let rng = Rng.create 12 in
  let a = [| 5; 5; 1; 2; 9; 1 |] in
  let b = Array.copy a in
  Rng.shuffle rng b;
  Array.sort compare a;
  let b' = Array.copy b in
  Array.sort compare b';
  Alcotest.(check (array int)) "same multiset" a b'

let test_sample_without_replacement () =
  let rng = Rng.create 13 in
  for _ = 1 to 50 do
    let s = Rng.sample_without_replacement rng 5 12 in
    check_int "size" 5 (Array.length s);
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun v ->
        check "in range" true (v >= 0 && v < 12);
        check "distinct" false (Hashtbl.mem tbl v);
        Hashtbl.add tbl v ())
      s
  done

let test_sample_full () =
  let rng = Rng.create 14 in
  let s = Rng.sample_without_replacement rng 6 6 in
  let s = Array.copy s in
  Array.sort compare s;
  Alcotest.(check (array int)) "full sample is a permutation"
    (Array.init 6 Fun.id) s

let test_pick_member () =
  let rng = Rng.create 15 in
  let a = [| 3; 1; 4 |] in
  for _ = 1 to 40 do
    let v = Rng.pick rng a in
    check "member" true (Array.exists (( = ) v) a)
  done

(* Stream pins: literal outputs of the xoshiro256** / SplitMix64 streams.
   Any change to the state representation or the draw functions that
   shifts a stream fails here by name, not only through the golden grid. *)
let int64_list = Alcotest.(list int64)

let take n f = List.init n (fun _ -> f ())

let test_bits64_pins () =
  List.iter
    (fun (seed, expected) ->
      let r = Rng.create seed in
      Alcotest.check int64_list
        (Printf.sprintf "seed %d" seed)
        expected
        (take 8 (fun () -> Rng.bits64 r)))
    [
      ( 0,
        [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L;
          7684712102626143532L; -4925340083591827879L; -4640532413560118L;
          7788427924976520344L; -8565655843838424513L ] );
      ( 1,
        [ -5480124913605472059L; -8846382939111011094L; -7856363154187860716L;
          7218738570589545383L; -5586072249713871245L; 2648436617965840162L;
          1310552918490157286L; 7031611932980406429L ] );
      ( 42,
        [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L;
          -1389169964527427423L; -151191095644234140L; -4247557243643801032L;
          -5178765164775350862L; -2766855848391737209L ] );
      ( -1,
        [ -8118546653352383224L; -4290065566684577747L; -9088772293754075490L;
          -4655159067405239249L; -7983312046894832854L; -4948507577611999963L;
          6831296623176769502L; -4285393230689821982L ] );
    ]

let test_bounded_draw_pins () =
  let r = Rng.create 42 in
  Alcotest.(check (list int)) "int 17, seed 42"
    [ 4; 3; 11; 12; 6; 1; 9; 5; 12; 14; 0; 10; 1; 16; 3; 3 ]
    (take 16 (fun () -> Rng.int r 17));
  let r = Rng.create 42 in
  (* exact equality: hex literals are the bit patterns *)
  Alcotest.(check (list (float 0.0))) "float 1.0, seed 42"
    [ 0x1.5780b2e0c2ecp-4; 0x1.84136619b444ep-2; 0x1.5c2ea66473c93p-1;
      0x1.d9715a8e0766cp-1; 0x1.fbcdb8ffc5d8bp-1; 0x1.8a1b4a6202f2ap-1;
      0x1.7042a90ab4cbbp-1; 0x1.b3344e87d7ccp-1 ]
    (take 8 (fun () -> Rng.float r 1.0));
  let r = Rng.create 42 in
  Alcotest.(check (list bool)) "bool, seed 42"
    [ false; false; true; true; false; false; false; true; false; true;
      true; true; false; false; true; false ]
    (take 16 (fun () -> Rng.bool r))

let test_split_copy_pins () =
  let r = Rng.create 42 in
  let child = Rng.split r in
  Alcotest.check int64_list "split child of seed 42"
    [ -8150312660505607085L; 1184342940732292706L; 8258043193327897829L;
      -7937530469794552443L ]
    (take 4 (fun () -> Rng.bits64 child));
  (* the split consumed exactly one parent output *)
  Alcotest.check int64_list "parent after split"
    [ 6990951692964543102L; -5902157311460992607L; -1389169964527427423L;
      -151191095644234140L ]
    (take 4 (fun () -> Rng.bits64 r));
  let r = Rng.create 7 in
  ignore (Rng.bits64 r);
  ignore (Rng.bits64 r);
  let c = Rng.copy r in
  let expected =
    [ -2958351167216911978L; -348685429060373952L; -168598097271454952L;
      -2346906591474643895L ]
  in
  Alcotest.check int64_list "copy of seed 7 after two draws" expected
    (take 4 (fun () -> Rng.bits64 c));
  Alcotest.check int64_list "original replays the same" expected
    (take 4 (fun () -> Rng.bits64 r))

(* Allocation guard: the per-copy delay and fault draws run millions of
   times per run, so a draw must allocate nothing. [Rng.float] returns a
   float across a compilation-unit boundary; where that call is not
   inlined (dune's dev profile compiles with -opaque) the result is one
   boxed float, 2 words, and nothing else. *)
let words_per_call f =
  let n = 100_000 in
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_draws_allocate_nothing () =
  let r = Rng.create 3 in
  let check_words name limit f =
    let w = words_per_call f in
    check (Printf.sprintf "%s: %.2f words per call <= %g" name w limit) true
      (w <= limit)
  in
  check_words "Rng.int r 16" 0.0 (fun () ->
      ignore (Sys.opaque_identity (Rng.int r 16)));
  check_words "Rng.bool r" 0.0 (fun () ->
      ignore (Sys.opaque_identity (Rng.bool r)));
  check_words "Rng.float r 1.0 < 0.5" 2.0 (fun () ->
      ignore (Sys.opaque_identity (Rng.float r 1.0 < 0.5)));
  check_words "Rng.chance r 0.5" 0.0 (fun () ->
      ignore (Sys.opaque_identity (Rng.chance r 0.5)))

(* The two-division draw [Rng.int] used before its one-division form,
   kept here as the reference: reject [v >= mask / n * n], return
   [v mod n]. *)
let reference_int r n =
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let bound = mask / n * n in
  let next () = Int64.to_int (Int64.shift_right_logical (Rng.bits64 r) 2) in
  let v = ref (next ()) in
  while !v >= bound do
    v := next ()
  done;
  !v mod n

(* bounds of every size, with many at n >= 2^61, where over a quarter
   of the 62-bit draws fall past the last whole block and are
   rejected *)
let bound_gen =
  QCheck2.Gen.(
    oneof
      [
        int_range 1 64;
        map (fun x -> Int.max 1 (x land max_int)) int;
        map (fun x -> (1 lsl 61) lor (x land ((1 lsl 61) - 1))) int;
        oneofl [ 1 lsl 61; (1 lsl 61) + 1; max_int / 3 * 2; max_int ];
      ])

let prop_int_matches_reference =
  QCheck2.Test.make ~name:"Rng.int = the two-division draw, states equal"
    ~count:300
    QCheck2.Gen.(pair int (list_size (int_range 1 40) bound_gen))
    (fun (seed, bounds) ->
      let a = Rng.create seed in
      let b = Rng.copy a in
      List.for_all (fun n -> Rng.int a n = reference_int b n) bounds
      && Rng.bits64 a = Rng.bits64 b)

(* the property above only means something where rejection fires:
   at n = 2^61 + 1 about half the draws are rejected *)
let test_int_rejection_fires () =
  let n = (1 lsl 61) + 1 in
  let a = Rng.create 21 in
  let b = Rng.copy a in
  let draws = 200 in
  for _ = 1 to draws do
    ignore (Rng.int a n)
  done;
  let consumed = ref 0 in
  let target = Rng.bits64 a in
  while Rng.bits64 b <> target do
    incr consumed
  done;
  check
    (Printf.sprintf "%d raw outputs for %d draws" !consumed draws)
    true
    (!consumed > draws + (draws / 4))

(* The bias of a coin: 0, 1, a multiple of 2^-53 (every draw is one),
   the next draw itself or one step either side of it, so that [x < p]
   is tested at [x = p], or a bias that is not dyadic or not in [0, 1]. *)
type bias = Zero | One | Multiple of int | At_next of int | Other of float

let bias_gen =
  QCheck2.Gen.(
    oneof
      [
        pure Zero;
        pure One;
        map (fun k -> Multiple k) (int_bound (1 lsl 53));
        map (fun off -> At_next off) (int_range (-1) 1);
        map (fun p -> Other p)
          (oneofl [ 0.1; 1.0 /. 3.0; 0.783; -0.5; 1.5; Float.nan ]);
      ])

let print_bias = function
  | Zero -> "0"
  | One -> "1"
  | Multiple k -> Printf.sprintf "%d*2^-53" k
  | At_next off -> Printf.sprintf "next%+d*2^-53" off
  | Other p -> Printf.sprintf "%h" p

let prop_chance_is_float_below =
  QCheck2.Test.make ~name:"Rng.chance p = (Rng.float 1.0 < p), states equal"
    ~count:300 ~print:QCheck2.Print.(pair int (list print_bias))
    QCheck2.Gen.(pair int (list_size (int_range 1 40) bias_gen))
    (fun (seed, biases) ->
      let a = Rng.create seed in
      let b = Rng.copy a in
      List.for_all
        (fun bias ->
          let p =
            match bias with
            | Zero -> 0.0
            | One -> 1.0
            | Multiple k -> Float.ldexp (Float.of_int k) (-53)
            | At_next off ->
              Rng.float (Rng.copy b) 1.0 +. Float.ldexp (Float.of_int off) (-53)
            | Other p -> p
          in
          Rng.chance a p = (Rng.float b 1.0 < p))
        biases
      && Rng.bits64 a = Rng.bits64 b)

let suite =
  [
    Alcotest.test_case "determinism from seed" `Quick test_determinism;
    Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
    Alcotest.test_case "copy replays stream" `Quick test_copy_equal_stream;
    Alcotest.test_case "split decorrelates" `Quick test_split_decorrelates;
    Alcotest.test_case "int in range" `Quick test_int_range;
    Alcotest.test_case "int rejects bad bound" `Quick test_int_bad_bound;
    Alcotest.test_case "int covers all values" `Quick test_int_covers_all;
    Alcotest.test_case "int roughly uniform" `Quick test_int_roughly_uniform;
    Alcotest.test_case "float in range" `Quick test_float_range;
    Alcotest.test_case "bool balanced" `Quick test_bool_balance;
    Alcotest.test_case "permutation is valid" `Quick test_permutation_valid;
    Alcotest.test_case "shuffle preserves multiset" `Quick
      test_shuffle_preserves_multiset;
    Alcotest.test_case "sample without replacement" `Quick
      test_sample_without_replacement;
    Alcotest.test_case "sample k=n" `Quick test_sample_full;
    Alcotest.test_case "pick returns a member" `Quick test_pick_member;
    Alcotest.test_case "bits64 streams pinned" `Quick test_bits64_pins;
    Alcotest.test_case "int/float/bool streams pinned" `Quick
      test_bounded_draw_pins;
    Alcotest.test_case "split and copy streams pinned" `Quick
      test_split_copy_pins;
    Alcotest.test_case "draws allocate nothing" `Quick
      test_draws_allocate_nothing;
    Alcotest.test_case "int rejection fires at n > 2^61" `Quick
      test_int_rejection_fires;
    QCheck_alcotest.to_alcotest prop_int_matches_reference;
    QCheck_alcotest.to_alcotest prop_chance_is_float_below;
  ]
