(* The four xoshiro256** state words live unboxed in a 32-byte buffer,
   read and written in native byte order: a draw touches no Int64 box
   and no write barrier, so [int], [bool] and [chance] allocate nothing
   and [float] only its boxed result where the call is not inlined. The
   byte order never leaks: the state is only seeded, stepped and copied
   in place. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* SplitMix64: used only to expand a seed into xoshiro's 256-bit state and
   to derive split streams. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed64 =
  let st = ref seed64 in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (splitmix_next st)
  done;
  t

let create seed = of_seed64 (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

(* One xoshiro256** step: advance the state, return the raw output. *)
let[@inline] advance t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16
  and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64 t 8 (logxor s1 s2);
  set64 t 0 (logxor s0 s3);
  set64 t 16 (logxor s2 tmp);
  set64 t 24 (rotl s3 45);
  result

(* The next output shifted right by [k], as an [int]: the one step every
   bounded draw is built on. For [k >= 2] the value is exactly the top
   [64 - k] bits, non-negative; for [k = 0] the top bit is dropped. *)
let next t k = Int64.to_int (Int64.shift_right_logical (advance t) k)

let bits64 t = advance t

let split t =
  (* Derive a child seed from the parent stream; SplitMix re-expansion keeps
     the child decorrelated from subsequent parent output. *)
  of_seed64 (bits64 t)

let copy = Bytes.copy

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits for exact uniformity, with
     one division per draw: [v - v mod n] is [v]'s multiple of [n], and
     [v] is rejected exactly when that multiple's block [n] wide would
     pass [mask] — the draws past the largest whole block, the same
     [v >= mask / n * n] test without its second division. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let v = ref (next t 2) in
  let r = ref (!v mod n) in
  while !v - !r > mask - n do
    v := next t 2;
    r := !v mod n
  done;
  !r

let[@inline] float t x =
  x *. (Float.of_int (next t 11) /. 9007199254740992.0 (* 2^53 *))

(* [float t 1.0 < p] without the float crossing the module boundary:
   [1.0 *. x = x], so the same bits make the same decision *)
let chance t p = Float.of_int (next t 11) /. 9007199254740992.0 < p

let bool t = next t 0 land 1 = 1

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Partial Fisher-Yates over 0..n-1; O(n) space, O(n + k) time. *)
  let a = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.sub a 0 k
