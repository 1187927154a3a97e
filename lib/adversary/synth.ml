open Doall_sim

type eval = {
  e_work : int;
  e_messages : int;
  e_sigma : int;
  e_completed : bool;
  e_violation : string option;
  e_wall : float;
}

type fitness = Work | Effort | Sigma | Cap_hits | Wall_per_work

let fitness_to_string = function
  | Work -> "work"
  | Effort -> "effort"
  | Sigma -> "sigma"
  | Cap_hits -> "cap-hits"
  | Wall_per_work -> "wall-per-work"

let fitness_of_string = function
  | "work" -> Ok Work
  | "effort" -> Ok Effort
  | "sigma" -> Ok Sigma
  | "cap-hits" -> Ok Cap_hits
  | "wall-per-work" -> Ok Wall_per_work
  | s ->
    Error
      (Printf.sprintf
         "unknown fitness %S (work|effort|sigma|cap-hits|wall-per-work)" s)

(* Higher is worse-for-the-algorithm, i.e. better for the search. Any
   invariant violation scores [infinity]. *)
let score fitness e =
  match e.e_violation with
  | Some _ -> infinity
  | None -> (
    match fitness with
    | Work -> float_of_int e.e_work
    | Effort -> float_of_int (e.e_work + e.e_messages)
    | Sigma -> float_of_int e.e_sigma
    | Cap_hits ->
      (if e.e_completed then 0.0 else 1.0e15) +. float_of_int e.e_work
    | Wall_per_work -> e.e_wall /. float_of_int (max 1 e.e_work))

type progress = {
  gen : int;
  evals : int;
  best_score : float;
  best_spec : string;
  capped : int;
  violations : int;
}

type outcome = {
  best : Strategy.t;
  best_spec : string;
  best_score : float;
  best_eval : eval;
  evals : int;
  capped : int;
  violations : (string * string) list;
  history : progress list;
}

let rec map_seq f = function
  | [] -> []
  | x :: rest ->
    let y = f x in
    y :: map_seq f rest

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let dedup_by_spec cands =
  let seen = Hashtbl.create 16 in
  let rec go = function
    | [] -> []
    | ((spec, _) as c) :: rest ->
      if Hashtbl.mem seen spec then go rest
      else begin
        Hashtbl.add seen spec ();
        c :: go rest
      end
  in
  go cands

let search ?(seed = 0) ?(population = 12) ?(elite = 2)
    ?(space = Strategy.Live) ?(init = []) ?(fitness = Work) ?(chan = false)
    ?wall_cap_s ?on_generation ?pool ?jobs ~eval ~p ~t:tsk ~d ~budget () =
  if budget < 1 then invalid_arg "Synth.search: budget must be >= 1";
  let population = max 2 population in
  let elite = max 1 (min elite (population - 1)) in
  let rng = Rng.create seed in
  let owned_pool = pool = None in
  let pool = match pool with Some pl -> pl | None -> Pool.create ?jobs () in
  Fun.protect ~finally:(fun () -> if owned_pool then Pool.shutdown pool)
  @@ fun () ->
  let deadline =
    match wall_cap_s with
    | None -> Float.max_float
    | Some s -> Unix.gettimeofday () +. s
  in
  let cache : (string, eval) Hashtbl.t = Hashtbl.create 64 in
  let n_evals = ref 0 in
  let n_capped = ref 0 in
  let violations = ref [] in
  let history = ref [] in
  let best = ref None in
  let consider spec st e =
    let s = score fitness e in
    let better =
      match !best with
      | None -> true
      | Some (bs, bspec, _, _) -> s > bs || (s = bs && spec < bspec)
    in
    if better then best := Some (s, spec, st, e)
  in
  (* Evaluate the not-yet-seen candidates (up to the remaining budget) on
     the pool, then return the sublist of [cands] that now has a cached
     eval — the members usable in the next population. *)
  let evaluate cands =
    let cands = dedup_by_spec cands in
    let fresh =
      take (budget - !n_evals)
        (List.filter (fun (spec, _) -> not (Hashtbl.mem cache spec)) cands)
    in
    let results = Pool.map pool (fun (_, st) -> eval st) fresh in
    List.iter2
      (fun (spec, st) e ->
        Hashtbl.replace cache spec e;
        incr n_evals;
        if not e.e_completed then incr n_capped;
        (match e.e_violation with
        | Some v -> violations := (spec, v) :: !violations
        | None -> ());
        consider spec st e)
      fresh results;
    List.filter (fun (spec, _) -> Hashtbl.mem cache spec) cands
  in
  let norm st =
    let st = Strategy.make st in
    (Strategy.to_spec st, st)
  in
  let gen = ref 0 in
  let record () =
    match !best with
    | None -> ()
    | Some (bs, bspec, _, _) ->
      let pr =
        {
          gen = !gen;
          evals = !n_evals;
          best_score = bs;
          best_spec = bspec;
          capped = !n_capped;
          violations = List.length !violations;
        }
      in
      history := pr :: !history;
      Option.iter (fun f -> f pr) on_generation
  in
  (* generation 0: the seeded strategies first, then random fill *)
  let seeds = map_seq norm init in
  let rec fill acc attempts =
    if List.length (dedup_by_spec acc) >= population || attempts <= 0 then acc
    else
      fill
        (acc @ [ norm (Strategy.random ~chan ~rng ~space ~p ~t:tsk ~d ()) ])
        (attempts - 1)
  in
  let pop = ref (take population (dedup_by_spec (fill seeds (4 * population)))) in
  pop := evaluate !pop;
  record ();
  let stalled = ref 0 in
  while
    !n_evals < budget && !stalled < 50 && Unix.gettimeofday () < deadline
  do
    incr gen;
    let before = !n_evals in
    let scored =
      map_seq
        (fun (spec, st) -> (score fitness (Hashtbl.find cache spec), spec, st))
        !pop
    in
    let ranked =
      List.sort
        (fun (s1, sp1, _) (s2, sp2, _) ->
          match compare s2 s1 with 0 -> compare sp1 sp2 | c -> c)
        scored
    in
    let elites = map_seq (fun (_, sp, st) -> (sp, st)) (take elite ranked) in
    let parents =
      Array.of_list
        (map_seq (fun (_, _, st) -> st)
           (take (max 2 (population / 2)) ranked))
    in
    let pick_parent () = parents.(Rng.int rng (Array.length parents)) in
    let children = ref [] in
    for _ = 1 to max 1 (population - elite) do
      let child =
        if Rng.int rng 100 < 30 && Array.length parents >= 2 then begin
          let a = pick_parent () in
          let b = pick_parent () in
          Strategy.crossover ~rng ~space ~p a b
        end
        else Strategy.mutate ~chan ~rng ~space ~p ~t:tsk ~d (pick_parent ())
      in
      children := norm child :: !children
    done;
    let children = List.rev !children in
    (* hill-climb the incumbent: two fresh single-step mutants of best *)
    let hill =
      match !best with
      | None -> []
      | Some (_, _, bst, _) ->
        let m1 = norm (Strategy.mutate ~chan ~rng ~space ~p ~t:tsk ~d bst) in
        let m2 = norm (Strategy.mutate ~chan ~rng ~space ~p ~t:tsk ~d bst) in
        [ m1; m2 ]
    in
    let evaluated = evaluate (children @ hill) in
    pop := take population (dedup_by_spec (elites @ evaluated));
    (* a generation that found nothing new (all duplicates) must not spin
       forever when the spec space is tiny *)
    if !n_evals = before then incr stalled else stalled := 0;
    record ()
  done;
  match !best with
  | None -> failwith "Synth.search: no candidate was evaluated"
  | Some (bs, bspec, bst, be) ->
    {
      best = bst;
      best_spec = bspec;
      best_score = bs;
      best_eval = be;
      evals = !n_evals;
      capped = !n_capped;
      violations = List.rev !violations;
      history = List.rev !history;
    }
