open Doall_sim

type t = int array

let is_valid a =
  let n = Array.length a in
  let seen = Array.make n false in
  let ok = ref true in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then ok := false else seen.(v) <- true)
    a;
  !ok

let of_array a =
  if not (is_valid a) then invalid_arg "Perm.of_array: not a permutation";
  Array.copy a

let of_array_unsafe a = a
let to_array p = Array.copy p
let size = Array.length
let apply p i = p.(i)
let identity n = Array.init n (fun i -> i)
let reverse n = Array.init n (fun i -> n - 1 - i)

let rotation n k =
  if n <= 0 then invalid_arg "Perm.rotation";
  let k = ((k mod n) + n) mod n in
  Array.init n (fun i -> (i + k) mod n)

let compose a b =
  if Array.length a <> Array.length b then
    invalid_arg "Perm.compose: size mismatch";
  Array.init (Array.length a) (fun i -> a.(b.(i)))

let inverse p =
  let n = Array.length p in
  let inv = Array.make n 0 in
  for i = 0 to n - 1 do
    inv.(p.(i)) <- i
  done;
  inv


let next_in_place a =
  (* Standard next-permutation: find the rightmost ascent, swap, reverse
     the suffix. *)
  let n = Array.length a in
  let i = ref (n - 2) in
  while !i >= 0 && a.(!i) >= a.(!i + 1) do
    decr i
  done;
  if !i < 0 then begin
    Array.sort Stdlib.compare a;
    false
  end
  else begin
    let j = ref (n - 1) in
    while a.(!j) <= a.(!i) do
      decr j
    done;
    let tmp = a.(!i) in
    a.(!i) <- a.(!j);
    a.(!j) <- tmp;
    let lo = ref (!i + 1) and hi = ref (n - 1) in
    while !lo < !hi do
      let tmp = a.(!lo) in
      a.(!lo) <- a.(!hi);
      a.(!hi) <- tmp;
      incr lo;
      decr hi
    done;
    true
  end

let all n =
  if n < 0 || n > 9 then invalid_arg "Perm.all: n must be in 0..9";
  if n = 0 then [ [||] ]
  else begin
    let cur = identity n in
    let acc = ref [ Array.copy cur ] in
    while next_in_place cur do
      acc := Array.copy cur :: !acc
    done;
    List.rev !acc
  end

let random rng n = Rng.permutation rng n

let pp ppf p =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
       Format.pp_print_int)
    (Array.to_list p)
