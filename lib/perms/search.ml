open Doall_sim

type certificate = { list : Perm.t list; contention : int; bound : float }

let exhaustive n =
  if n < 1 || n > 3 then
    invalid_arg "Search.exhaustive: feasible only for n <= 3";
  let perms = Array.of_list (Perm.all n) in
  let k = Array.length perms in
  (* Enumerate all k^n lists by counting in base k. *)
  let idx = Array.make n 0 in
  let best = ref None in
  let continue_ = ref true in
  while !continue_ do
    let list = Array.to_list (Array.map (fun i -> perms.(i)) idx) in
    let c = Contention.contention_exact list in
    (match !best with
     | Some (_, bc) when bc <= c -> ()
     | _ -> best := Some (list, c));
    (* increment base-k counter *)
    let rec inc i =
      if i >= n then continue_ := false
      else if idx.(i) + 1 < k then idx.(i) <- idx.(i) + 1
      else begin
        idx.(i) <- 0;
        inc (i + 1)
      end
    in
    inc 0
  done;
  match !best with
  | Some (list, contention) ->
    { list; contention; bound = Contention.bound_lemma_4_1 n }
  | None -> assert false

(* Local search from [list] ([n] permutations of size [n], 2 <= n <= 8):
   random transpositions inside single permutations, keeping those that
   do not increase exact contention. One subset table for the list: a
   step only updates the gains of the swapped span and re-solves where
   they can matter. *)
let improve ~steps ~rng list =
  let arrs = Array.of_list (List.map Perm.to_array list) in
  let count = Array.length arrs and n = Array.length arrs.(0) in
  let table = Contention.table arrs in
  for _ = 1 to steps do
    let u = Rng.int rng count in
    let i = Rng.int rng n and j = Rng.int rng n in
    if i <> j then Contention.try_swap table u i j
  done;
  (Array.to_list (Array.map Perm.of_array arrs), Contention.value table)

let certified ?(attempts = 32) ?(local_steps = 200) ~rng n =
  if n < 2 || n > 8 then
    invalid_arg "Search.certified: requires 2 <= n <= 8";
  let bound = Contention.bound_lemma_4_1 n in
  let best = ref None in
  (try
     for _ = 1 to attempts do
       let list0 = Gen.random_list ~rng ~n ~count:n in
       let list, c = improve ~steps:local_steps ~rng list0 in
       (match !best with
        | Some (_, bc) when bc <= c -> ()
        | _ -> best := Some (list, c));
       match !best with
       | Some (_, bc) when float_of_int bc <= bound -> raise Exit
       | _ -> ()
     done
   with Exit -> ());
  match !best with
  | Some (list, contention) when float_of_int contention <= bound ->
    { list; contention; bound }
  | Some (_, contention) ->
    failwith
      (Printf.sprintf
         "Search.certified: best contention %d exceeds 3nH_n = %.2f for n=%d"
         contention bound n)
  | None -> assert false
