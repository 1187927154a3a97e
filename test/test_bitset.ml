open Doall_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_create_empty () =
  let b = Bitset.create 10 in
  check_int "length" 10 (Bitset.length b);
  check_int "cardinal" 0 (Bitset.cardinal b);
  check "empty" true (Bitset.cardinal b = 0);
  check "not full" false (Bitset.is_full b);
  for i = 0 to 9 do
    check "bit clear" false (Bitset.mem b i)
  done

let test_zero_capacity () =
  let b = Bitset.create 0 in
  check "empty" true (Bitset.cardinal b = 0);
  check "vacuously full" true (Bitset.is_full b)

let test_set_mem () =
  let b = Bitset.create 20 in
  Bitset.set b 0;
  Bitset.set b 7;
  Bitset.set b 8;
  Bitset.set b 19;
  check "0" true (Bitset.mem b 0);
  check "7" true (Bitset.mem b 7);
  check "8 (byte boundary)" true (Bitset.mem b 8);
  check "19" true (Bitset.mem b 19);
  check "1 clear" false (Bitset.mem b 1);
  check_int "cardinal" 4 (Bitset.cardinal b)

let test_set_idempotent () =
  let b = Bitset.create 5 in
  Bitset.set b 3;
  Bitset.set b 3;
  check_int "cardinal counts once" 1 (Bitset.cardinal b)

let test_out_of_range () =
  let b = Bitset.create 5 in
  Alcotest.check_raises "set -1" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.set b (-1));
  Alcotest.check_raises "mem 5" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.mem b 5))

let test_full () =
  let b = Bitset.create 9 in
  for i = 0 to 8 do
    Bitset.set b i
  done;
  check "full" true (Bitset.is_full b)

let test_copy_independent () =
  let a = Bitset.create 8 in
  Bitset.set a 2;
  let b = Bitset.copy a in
  Bitset.set b 5;
  check "copy has original bit" true (Bitset.mem b 2);
  check "original unaffected" false (Bitset.mem a 5)

let test_union () =
  let a = Bitset.of_list 10 [ 1; 3; 5 ] in
  let b = Bitset.of_list 10 [ 3; 4 ] in
  Bitset.union_into ~dst:a b;
  Alcotest.(check (list int)) "union" [ 1; 3; 4; 5 ] (Bitset.to_list a);
  check_int "cardinal recomputed" 4 (Bitset.cardinal a);
  Alcotest.(check (list int)) "src untouched" [ 3; 4 ] (Bitset.to_list b)

let test_union_mismatch () =
  let a = Bitset.create 4 and b = Bitset.create 5 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Bitset.union_into: capacity mismatch") (fun () ->
      Bitset.union_into ~dst:a b)

let test_subset () =
  let a = Bitset.of_list 8 [ 1; 2 ] in
  let b = Bitset.of_list 8 [ 1; 2; 5 ] in
  check "a <= b" true (Bitset.subset a b);
  check "b </= a" false (Bitset.subset b a);
  check "a <= a" true (Bitset.subset a a);
  check "empty <= a" true (Bitset.subset (Bitset.create 8) a)

let test_equal () =
  let a = Bitset.of_list 8 [ 0; 7 ] in
  let b = Bitset.of_list 8 [ 0; 7 ] in
  let c = Bitset.of_list 8 [ 0 ] in
  check "equal" true (Bitset.equal a b);
  check "not equal" false (Bitset.equal a c)

let test_missing () =
  let b = Bitset.of_list 6 [ 0; 2; 4 ] in
  Alcotest.(check (list int)) "missing" [ 1; 3; 5 ] (Bitset.missing b);
  Alcotest.(check (option int)) "first missing" (Some 1)
    (Bitset.first_missing b)

let test_first_missing_full () =
  let b = Bitset.of_list 3 [ 0; 1; 2 ] in
  Alcotest.(check (option int)) "none" None (Bitset.first_missing b)

let test_iterators () =
  let b = Bitset.of_list 7 [ 1; 4; 6 ] in
  let set_acc = ref [] and miss_acc = ref [] in
  Bitset.iter_set b (fun i -> set_acc := i :: !set_acc);
  List.iter (fun i -> miss_acc := i :: !miss_acc) (Bitset.missing b);
  Alcotest.(check (list int)) "iter_set" [ 1; 4; 6 ] (List.rev !set_acc);
  Alcotest.(check (list int)) "iter_missing" [ 0; 2; 3; 5 ]
    (List.rev !miss_acc)

let test_word_boundaries () =
  (* the packing is 63 bits per word: exercise 62/63/64 and a capacity
     spanning several words *)
  let b = Bitset.create 200 in
  List.iter (Bitset.set b) [ 0; 62; 63; 64; 125; 126; 189; 199 ];
  Alcotest.(check (list int)) "set bits across words"
    [ 0; 62; 63; 64; 125; 126; 189; 199 ]
    (Bitset.to_list b);
  check_int "cardinal" 8 (Bitset.cardinal b);
  check "62" true (Bitset.mem b 62);
  check "63 (word boundary)" true (Bitset.mem b 63);
  check "65 clear" false (Bitset.mem b 65);
  let c = Bitset.copy b in
  Bitset.union_into ~dst:c b;
  check "union idempotent" true (Bitset.equal b c)

let test_full_multiword () =
  let n = 130 in
  let b = Bitset.create n in
  for i = 0 to n - 1 do
    Bitset.set b i
  done;
  check "full across words" true (Bitset.is_full b);
  Alcotest.(check (option int)) "no missing" None (Bitset.first_missing b);
  Alcotest.(check (list int)) "missing empty" [] (Bitset.missing b)

let test_first_missing_scans_words () =
  let n = 190 in
  let b = Bitset.create n in
  for i = 0 to n - 1 do
    if i <> 150 then Bitset.set b i
  done;
  Alcotest.(check (option int)) "deep first missing" (Some 150)
    (Bitset.first_missing b);
  Alcotest.(check (list int)) "deep missing list" [ 150 ] (Bitset.missing b)

(* qcheck properties *)

let indices_gen =
  QCheck2.Gen.(
    let* n = int_range 1 200 in
    let* is = list_size (int_range 0 60) (int_range 0 (n - 1)) in
    return (n, is))

let prop_cardinal_matches =
  QCheck2.Test.make ~name:"cardinal = |distinct indices|" ~count:200
    indices_gen (fun (n, is) ->
      let b = Bitset.of_list n is in
      Bitset.cardinal b = List.length (List.sort_uniq compare is))

let prop_union_commutes_with_membership =
  QCheck2.Test.make ~name:"union membership = or of memberships" ~count:200
    QCheck2.Gen.(
      let* n = int_range 1 180 in
      let* xs = list_size (int_range 0 30) (int_range 0 (n - 1)) in
      let* ys = list_size (int_range 0 30) (int_range 0 (n - 1)) in
      return (n, xs, ys))
    (fun (n, xs, ys) ->
      let a = Bitset.of_list n xs and b = Bitset.of_list n ys in
      let u = Bitset.copy a in
      Bitset.union_into ~dst:u b;
      List.for_all
        (fun i -> Bitset.mem u i = (Bitset.mem a i || Bitset.mem b i))
        (List.init n Fun.id))

let prop_subset_iff_union_noop =
  QCheck2.Test.make ~name:"subset a b iff union b a = b" ~count:200
    QCheck2.Gen.(
      let* n = int_range 1 180 in
      let* xs = list_size (int_range 0 30) (int_range 0 (n - 1)) in
      let* ys = list_size (int_range 0 30) (int_range 0 (n - 1)) in
      return (n, xs, ys))
    (fun (n, xs, ys) ->
      let a = Bitset.of_list n xs and b = Bitset.of_list n ys in
      let u = Bitset.copy b in
      Bitset.union_into ~dst:u a;
      Bitset.subset a b = Bitset.equal u b)

let test_swar_popcount_edges () =
  (* cardinal is backed by the branch-free SWAR popcount; pin it against
     a naive per-bit count on the words that stress the 63-bit masking:
     all-ones (every mask byte saturated), the top bit 62 alone (peeled
     separately from the 62-bit SWAR body), and alternating patterns. *)
  let cases =
    [
      ([], 0);
      (List.init 63 Fun.id, 63); (* the all-ones word *)
      ([ 62 ], 1); (* bit 62: outside the SWAR masks *)
      ([ 0; 62 ], 2);
      (List.filteri (fun i _ -> i mod 2 = 0) (List.init 63 Fun.id), 32);
      (List.init 56 Fun.id, 56) (* saturates whole mask bytes *);
    ]
  in
  List.iter
    (fun (bits, expect) ->
      let b = Bitset.of_list 63 bits in
      check_int
        (Printf.sprintf "popcount of %d bits" expect)
        expect (Bitset.cardinal b))
    cases;
  (* multi-word: every residue class mod 7 over three words *)
  let bits = List.filter (fun i -> i mod 7 = 0) (List.init 189 Fun.id) in
  check_int "multi-word cardinal" (List.length bits)
    (Bitset.cardinal (Bitset.of_list 189 bits))

let test_copy_empty_skips_words () =
  let b = Bitset.create 200 in
  let c = Bitset.copy b in
  check "copy of empty is empty" true (Bitset.cardinal c = 0);
  check_int "copy length" 200 (Bitset.length c);
  (* the fresh array is genuinely independent *)
  Bitset.set c 150;
  check "original untouched" false (Bitset.mem b 150);
  check_int "copy cardinal" 1 (Bitset.cardinal c)

(* ------------------------------------------------------------------ *)
(* Copy-on-write model test: random op sequences over live sets and
   snapshots, each checked after every op against a plain bool array.
   Capacities cover a single short chunk (1, 62..64), one full 8-word
   chunk (504 bits) and one plus a 1-word tail (505), 8-word chunks
   (4096/4097) and 32-word chunks (131072). A mutation that leaks through a shared or
   adopted chunk shows up as a model mismatch on the other side. *)

type model = { bits : bool array; mutable count : int }

let model_set m i =
  if not m.bits.(i) then begin
    m.bits.(i) <- true;
    m.count <- m.count + 1
  end

let model_copy m = { bits = Array.copy m.bits; count = m.count }

let model_union ~dst src =
  Array.iteri (fun i b -> if b then model_set dst i) src.bits

(* to_list is O(words + set bits); with the cardinal it pins the whole
   contents without an O(n) sweep per set per op *)
let matches (b : _ Bitset.set) m =
  let l = Bitset.to_list b in
  Bitset.cardinal b = m.count
  && List.length l = m.count
  && List.for_all (fun i -> m.bits.(i)) l

(* a live set or a snapshot, for the read-only ops *)
type any = Any : _ Bitset.set * model -> any

type op =
  | Set of int * int (* live set, bit *)
  | Union_live of int * int (* dst live, src live *)
  | Union_snap of int * int (* dst live, src snapshot *)
  | Copy of int
  | Snapshot of int
  | Subset of int * int (* any set, any set *)
  | Equal of int * int
  | First_missing of int
  | Next_missing of int * int (* any set, start index *)
  | Iter_missing of int
  | Digest of int * int list (* ss.(0), ss.(1..): snapshots or digests *)

let pp_op = function
  | Set (a, i) -> Printf.sprintf "set %d %d" a i
  | Union_live (a, b) -> Printf.sprintf "union live%d <- live%d" a b
  | Union_snap (a, b) -> Printf.sprintf "union live%d <- snap%d" a b
  | Copy a -> Printf.sprintf "copy %d" a
  | Snapshot a -> Printf.sprintf "snapshot %d" a
  | Subset (a, b) -> Printf.sprintf "subset %d %d" a b
  | Equal (a, b) -> Printf.sprintf "equal %d %d" a b
  | First_missing a -> Printf.sprintf "first_missing %d" a
  | Next_missing (a, i) -> Printf.sprintf "next_missing %d %d" a i
  | Iter_missing a -> Printf.sprintf "iter_missing %d" a
  | Digest (a, bs) ->
    Printf.sprintf "digest snap%d :: [%s]" a
      (String.concat "," (List.map (Printf.sprintf "snap%d") bs))

let cow_gen =
  QCheck2.Gen.(
    let* n =
      frequency
        [
          (2, oneofl [ 1; 62; 63; 64 ]);
          (3, oneofl [ 504; 505 ]);
          (3, oneofl [ 4096; 4097 ]);
          (1, return 131072);
        ]
    in
    (* half the bits land in a hot window so sets collide on chunks *)
    let bit = oneof [ int_range 0 (n - 1); int_range 0 (min n 700 - 1) ] in
    let any = int_range 0 1000 in
    let op =
      frequency
        [
          (6, map2 (fun a i -> Set (a, i)) any bit);
          (2, map2 (fun a b -> Union_live (a, b)) any any);
          (3, map2 (fun a b -> Union_snap (a, b)) any any);
          (2, map (fun a -> Copy a) any);
          (3, map (fun a -> Snapshot a) any);
          (1, map2 (fun a b -> Subset (a, b)) any any);
          (1, map2 (fun a b -> Equal (a, b)) any any);
          (1, map (fun a -> First_missing a) any);
          (1, map2 (fun a i -> Next_missing (a, i)) any (int_range 0 n));
          (1, map (fun a -> Iter_missing a) any);
          ( 3,
            map2
              (fun a bs -> Digest (a, bs))
              any
              (list_size (int_range 0 3) any) );
        ]
    in
    pair (return n) (list_size (int_range 1 80) op))

let prop_cow_model =
  QCheck2.Test.make ~name:"copy-on-write sets and snapshots = bool array model"
    ~count:400
    ~print:(fun (n, ops) ->
      Printf.sprintf "n=%d: %s" n (String.concat "; " (List.map pp_op ops)))
    cow_gen
    (fun (n, ops) ->
      let fresh = { bits = Array.make n false; count = 0 } in
      let lives = ref [| (Bitset.create n, fresh) |] in
      let snaps = ref [||] in
      (* at most four of each, so ops keep meeting the same few sets;
         a new one past that replaces an earlier one *)
      let added = ref 0 in
      let add r x =
        incr added;
        if Array.length !r < 4 then r := Array.append !r [| x |]
        else !r.(!added mod 4) <- x
      in
      let live a = !lives.(a mod Array.length !lives) in
      (* readers range over live sets and snapshots alike *)
      let read a =
        let nl = Array.length !lives in
        let k = a mod (nl + Array.length !snaps) in
        if k < nl then (let b, m = !lives.(k) in Any (b, m))
        else (let b, m = !snaps.(k - nl) in Any (b, m))
      in
      let ok = ref true in
      let expect c = if not c then ok := false in
      List.iter
        (fun op ->
          (match op with
           | Set (a, i) ->
             let b, m = live a in
             Bitset.set b i;
             model_set m i
           | Union_live (a, c) ->
             let b, m = live a and src, ms = live c in
             Bitset.union_into ~dst:b src;
             model_union ~dst:m ms
           | Union_snap (a, c) ->
             if Array.length !snaps > 0 then begin
               let b, m = live a in
               let src, ms = !snaps.(c mod Array.length !snaps) in
               Bitset.union_into ~dst:b src;
               model_union ~dst:m ms
             end
           | Copy a ->
             let b, m = live a in
             add lives (Bitset.copy b, model_copy m)
           | Snapshot a ->
             let b, m = live a in
             add snaps (Bitset.snapshot b, model_copy m)
           | Digest (a, bs) ->
             (* ss.(0) is often an earlier digest, which receivers that
                took it hold: their next union of this one goes through
                the lineage *)
             if Array.length !snaps > 0 then begin
               let snap k = !snaps.(k mod Array.length !snaps) in
               let ss = List.map snap (a :: bs) in
               let m = { bits = Array.make n false; count = 0 } in
               List.iter (fun (_, ms) -> model_union ~dst:m ms) ss;
               add snaps
                 (Bitset.union_snapshots (Array.of_list (List.map fst ss)), m)
             end
           | Subset (a, c) ->
             (match (read a, read c) with
              | Any (x, mx), Any (y, my) ->
                let model =
                  Array.for_all Fun.id
                    (Array.mapi (fun i v -> (not v) || my.bits.(i)) mx.bits)
                in
                expect (Bitset.subset x y = model))
           | Equal (a, c) ->
             (match (read a, read c) with
              | Any (x, mx), Any (y, my) ->
                expect (Bitset.equal x y = (mx.bits = my.bits)))
           | First_missing a ->
             (match read a with
              | Any (x, mx) ->
                let rec first i =
                  if i >= n then None
                  else if mx.bits.(i) then first (i + 1)
                  else Some i
                in
                expect (Bitset.first_missing x = first 0))
           | Next_missing (a, from) ->
             (match read a with
              | Any (x, mx) ->
                let rec next i =
                  if i >= n || not mx.bits.(i) then i else next (i + 1)
                in
                expect (Bitset.next_missing x from = next from))
           | Iter_missing a ->
             (match read a with
              | Any (x, mx) ->
                let model =
                  List.filter (fun i -> not mx.bits.(i)) (List.init n Fun.id)
                in
                expect (Bitset.missing x = model)));
          Array.iter (fun (b, m) -> expect (matches b m)) !lives;
          Array.iter (fun (b, m) -> expect (matches b m)) !snaps)
        ops;
      !ok)

(* [union_snapshots] against the plain fold it replaces: [ss.(1..)],
   then [ss.(0)], each by [union_into]. The families are an epoch's:
   senders that took the previous digest share its chunks, and each
   writes private copies of a few of them, so most snapshot chunks are
   the shared ones a private copy already covered. A receiver holding
   the previous digest, with a private bit or not, takes the new one
   through the lineage and must end where the plain fold takes it. *)
let plain_fold ss =
  let acc = Bitset.create (Bitset.length ss.(0)) in
  for i = 1 to Array.length ss - 1 do
    Bitset.union_into ~dst:acc ss.(i)
  done;
  Bitset.union_into ~dst:acc ss.(0);
  acc

let prop_fold_matches_plain =
  QCheck2.Test.make ~name:"union_snapshots = plain union_into fold" ~count:200
    QCheck2.Gen.(
      let* n = oneofl [ 504; 4097; 32768 ] in
      let bit = oneof [ int_range 0 (n - 1); int_range 0 (min n 1500 - 1) ] in
      let* base = list_size (int_range 0 40) bit in
      let* senders = int_range 2 6 in
      let* rounds =
        list_size (int_range 1 4)
          (pair (array_size (return senders) (list_size (int_range 0 4) bit))
             (opt bit))
      in
      return (n, base, rounds))
    (fun (n, base, rounds) ->
      let b = Bitset.create n in
      List.iter (Bitset.set b) base;
      let senders = ref [||] and prev = ref None and ok = ref true in
      List.iter
        (fun (writes, private_bit) ->
          if !senders = [||] then
            senders := Array.map (fun _ -> Bitset.copy b) writes;
          Array.iteri (fun i bits -> List.iter (Bitset.set !senders.(i)) bits)
            writes;
          let snaps = Array.map Bitset.snapshot !senders in
          let ss =
            match !prev with
            | None -> snaps
            | Some d -> Array.append [| d |] snaps
          in
          let d = Bitset.union_snapshots ss and plain = plain_fold ss in
          let same x y =
            Bitset.equal x y
            && Bitset.cardinal x = Bitset.cardinal y
            && Bitset.to_list x = Bitset.to_list y
          in
          if not (same d plain) then ok := false;
          (match !prev with
           | None -> ()
           | Some p ->
             let r = Bitset.create n in
             Bitset.union_into ~dst:r p;
             Option.iter (Bitset.set r) private_bit;
             let r' = Bitset.copy r in
             Bitset.union_into ~dst:r d;
             Bitset.union_into ~dst:r' plain;
             if not (same r r') then ok := false);
          Array.iter (fun s -> Bitset.union_into ~dst:s d) !senders;
          prev := Some d)
        rounds;
      !ok)

let test_no_adoption_into_owned_chunk () =
  (* [live] owns its chunk ({1}) when the superset snapshot {1, 2}
     arrives. Adopting the snapshot's chunk there would let the next
     local write land in the snapshot. *)
  let a = Bitset.create 100 in
  let b = Bitset.copy a in
  Bitset.set a 1;
  Bitset.set a 2;
  let s = Bitset.snapshot a in
  Bitset.set b 1;
  Bitset.union_into ~dst:b s;
  Bitset.set b 3;
  Alcotest.(check (list int)) "snapshot unchanged" [ 1; 2 ] (Bitset.to_list s);
  Alcotest.(check (list int)) "receiver" [ 1; 2; 3 ] (Bitset.to_list b);
  (* and a shared receiver chunk that does adopt stays copy-on-write *)
  let c = Bitset.create 100 in
  Bitset.union_into ~dst:c s;
  Bitset.set c 4;
  Alcotest.(check (list int)) "snapshot unchanged after adoption" [ 1; 2 ]
    (Bitset.to_list s)

(* Digest k + 1 folds digest k first, so its lineage base is digest k's
   chunk array. A receiver holding digest k's chunks ends on digest
   k + 1's after one union, with the exact cardinal; a chunk it wrote
   itself (owned, so not the base's) is merged by reading it. Physical
   sharing shows in the reachable words: the receiver and digest k + 1
   together hold little more than the digest. *)
let test_lineage_adopts_next_digest () =
  let n = 32768 (* 521 words: 33 chunks of 16, as paran1 at t = 32768 *) in
  let senders = Array.init 3 (fun _ -> Bitset.create n) in
  let step k =
    Array.iteri
      (fun i s ->
        for j = 0 to 199 do
          Bitset.set s (((k * 600) + (i * 200) + j) * 7919 mod n)
        done)
      senders;
    Array.map Bitset.snapshot senders
  in
  let d1 = Bitset.union_snapshots (step 0) in
  let r = Bitset.create n and w = Bitset.create n in
  Bitset.union_into ~dst:r d1;
  Bitset.union_into ~dst:w d1;
  (* [w] writes one bit of its own and so owns that chunk *)
  let own = 5 in
  Bitset.set w own;
  let d2 = Bitset.union_snapshots (Array.append [| d1 |] (step 1)) in
  Bitset.union_into ~dst:r d2;
  Bitset.union_into ~dst:w d2;
  check "receiver = digest k + 1" true (Bitset.equal r d2);
  check_int "receiver cardinal" (Bitset.cardinal d2) (Bitset.cardinal r);
  check_int "writer cardinal"
    (Bitset.cardinal d2 + if Bitset.mem d2 own then 0 else 1)
    (Bitset.cardinal w);
  check "writer holds its own bit" true (Bitset.mem w own);
  let words x = Obj.reachable_words (Obj.repr x) in
  let extra = words (r, d2) - words d2 in
  check
    (Printf.sprintf "receiver adds %d words to digest k + 1, < 60" extra)
    true (extra < 60);
  (* and digest k + 1 stays a value: the receiver's writes copy *)
  let before = Bitset.to_list d2 in
  Bitset.set r (Bitset.next_missing r 0);
  Alcotest.(check (list int)) "digest unchanged" before (Bitset.to_list d2)

let test_snapshot_size () =
  (* A snapshot costs its chunk pointers plus the chunks it does not
     share: at t = 131072 (32-word chunks), one written chunk, the
     shared zero chunk and 66 pointers. A flat copy is ~2 081 words. *)
  let b = Bitset.create 131072 in
  Bitset.set b 70_000;
  let s = Bitset.snapshot b in
  let words = Obj.reachable_words (Obj.repr s) in
  check (Printf.sprintf "snapshot holds %d words, < 150" words) true
    (words < 150);
  (* the sender's next write copies one chunk, not the snapshot *)
  Bitset.set b 70_001;
  check "snapshot unchanged by the sender's write" false (Bitset.mem s 70_001)

let suite =
  [
    Alcotest.test_case "create empty" `Quick test_create_empty;
    Alcotest.test_case "zero capacity" `Quick test_zero_capacity;
    Alcotest.test_case "set and mem" `Quick test_set_mem;
    Alcotest.test_case "set idempotent" `Quick test_set_idempotent;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    Alcotest.test_case "full" `Quick test_full;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "union" `Quick test_union;
    Alcotest.test_case "union capacity mismatch" `Quick test_union_mismatch;
    Alcotest.test_case "subset" `Quick test_subset;
    Alcotest.test_case "equal" `Quick test_equal;
    Alcotest.test_case "missing" `Quick test_missing;
    Alcotest.test_case "first_missing on full" `Quick test_first_missing_full;
    Alcotest.test_case "iterators" `Quick test_iterators;
    Alcotest.test_case "63-bit word boundaries" `Quick test_word_boundaries;
    Alcotest.test_case "full across words" `Quick test_full_multiword;
    Alcotest.test_case "first_missing scans words" `Quick
      test_first_missing_scans_words;
    Alcotest.test_case "SWAR popcount edge words" `Quick
      test_swar_popcount_edges;
    Alcotest.test_case "copy of empty set" `Quick test_copy_empty_skips_words;
    Alcotest.test_case "snapshot size at t=131072" `Quick test_snapshot_size;
    Alcotest.test_case "no adoption into an owned chunk" `Quick
      test_no_adoption_into_owned_chunk;
    Alcotest.test_case "lineage: a receiver adopts the next digest" `Quick
      test_lineage_adopts_next_digest;
    QCheck_alcotest.to_alcotest prop_cardinal_matches;
    QCheck_alcotest.to_alcotest prop_union_commutes_with_membership;
    QCheck_alcotest.to_alcotest prop_subset_iff_union_noop;
    QCheck_alcotest.to_alcotest prop_cow_model;
    QCheck_alcotest.to_alcotest prop_fold_matches_plain;
  ]
