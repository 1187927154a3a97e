open Doall_sim

type t = Adversary.faults

let none (_ : Adversary.oracle) ~src:_ ~dst:_ = Adversary.Deliver

let check_prob name prob =
  if not (prob >= 0.0 && prob <= 1.0) then
    invalid_arg (Printf.sprintf "Fault.%s: prob must be in [0,1]" name)

let drop ~prob =
  check_prob "drop" prob;
  fun (o : Adversary.oracle) ~src:_ ~dst:_ ->
    if Rng.chance o.rng prob then Adversary.Drop else Adversary.Deliver

let duplicate ?(copies = 1) ~prob =
  check_prob "duplicate" prob;
  if copies < 1 then invalid_arg "Fault.duplicate: copies >= 1";
  let dup = Adversary.Duplicate copies in
  fun (o : Adversary.oracle) ~src:_ ~dst:_ ->
    if Rng.chance o.rng prob then dup else Adversary.Deliver

(* [Reorder j] for every [j <= 64], built once: a verdict under any
   bound up to 64 is shared, not allocated. Never written, so domains
   may share it. *)
let reorders = Array.init 65 (fun j -> Adversary.Reorder j)

let reorder ~prob =
  check_prob "reorder" prob;
  fun (o : Adversary.oracle) ~src:_ ~dst:_ ->
    if Rng.chance o.rng prob then begin
      let j = 1 + Rng.int o.rng (Int.max 1 o.d) in
      if j < Array.length reorders then reorders.(j)
      else Adversary.Reorder j
    end
    else Adversary.Deliver

(* the first non-[Deliver] verdict, policies asked in order; top-level so
   that a verdict allocates no closure per copy *)
let rec first_verdict o ~src ~dst = function
  | [] -> Adversary.Deliver
  | (policy : t) :: rest -> (
    match policy o ~src ~dst with
    | Adversary.Deliver -> first_verdict o ~src ~dst rest
    | decision -> decision)

let all policies : t = fun o ~src ~dst -> first_verdict o ~src ~dst policies

(* ---- CLI spec parsing: "drop=0.3,dup=0.2x2,reorder=0.1" ---- *)

let usage =
  "fault spec is comma-separated drop=P | dup=P | dup=PxN | reorder=P with \
   P in [0,1], N >= 1 (e.g. \"drop=0.3,dup=0.2x2,reorder=0.1\")"

let parse_prob s =
  match float_of_string_opt s with
  | Some p when p >= 0.0 && p <= 1.0 -> Ok p
  | Some _ | None -> Error usage

let parse_field field =
  match String.index_opt field '=' with
  | None -> Error usage
  | Some i -> (
    let key = String.sub field 0 i in
    let v = String.sub field (i + 1) (String.length field - i - 1) in
    match key with
    | "drop" ->
      Result.map (fun p -> (drop ~prob:p, Printf.sprintf "drop=%g" p))
        (parse_prob v)
    | "dup" -> (
      match String.index_opt v 'x' with
      | None ->
        Result.map
          (fun p -> (duplicate ~copies:1 ~prob:p, Printf.sprintf "dup=%g" p))
          (parse_prob v)
      | Some j -> (
        let pv = String.sub v 0 j in
        let nv = String.sub v (j + 1) (String.length v - j - 1) in
        match (parse_prob pv, int_of_string_opt nv) with
        | Ok p, Some n when n >= 1 ->
          Ok (duplicate ~copies:n ~prob:p, Printf.sprintf "dup=%gx%d" p n)
        | _ -> Error usage))
    | "reorder" ->
      Result.map (fun p -> (reorder ~prob:p, Printf.sprintf "reorder=%g" p))
        (parse_prob v)
    | _ -> Error usage)

let of_spec spec =
  let fields =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if fields = [] then Error usage
  else
    let rec parse acc names = function
      | [] -> Ok (all (List.rev acc), String.concat "," (List.rev names))
      | field :: rest -> (
        match parse_field field with
        | Ok (policy, name) -> parse (policy :: acc) (name :: names) rest
        | Error _ as e -> e)
    in
    parse [] [] fields
