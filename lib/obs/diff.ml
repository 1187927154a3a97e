(* See diff.mli. *)

type finding = {
  path : string;
  expected : string;
  actual : string;
  machine : bool;
}

let pp_finding ppf f =
  Format.fprintf ppf "%s: expected %s, got %s%s" f.path f.expected f.actual
    (if f.machine then "  [machine-dependent, tolerance exceeded]" else "")

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let ends_with hay suffix =
  let nh = String.length hay and ns = String.length suffix in
  nh >= ns && String.sub hay (nh - ns) ns = suffix

let machine_key name =
  contains name "wall" || contains name "speedup" || contains name "rss"
  || contains name "measured" || contains name "seconds" || name = "ns"
  || ends_with name "_ns"

let default_tol = 1.5

let within_tol ~tol a b =
  Float.abs (a -. b) <= 1.0
  ||
  let lo = Float.min (Float.abs a) (Float.abs b)
  and hi = Float.max (Float.abs a) (Float.abs b) in
  lo > 0.0 && hi /. lo <= tol && a *. b > 0.0

let number = function
  | Export.Json.Int i -> Some (float_of_int i)
  | Export.Json.Float f -> Some f
  | _ -> None

let compare_values ?(tol = default_tol) a b =
  let open Export.Json in
  let acc = ref [] in
  let found path expected actual machine =
    acc := { path; expected; actual; machine } :: !acc
  in
  let leaf path machine a b =
    if machine then begin
      match (number a, number b) with
      | Some x, Some y ->
        if not (within_tol ~tol x y) then
          found path (to_string a) (to_string b) true
      | _ -> if a <> b then found path (to_string a) (to_string b) true
    end
    else if a <> b then found path (to_string a) (to_string b) false
  in
  let rec go path machine a b =
    match (a, b) with
    | Obj fa, Obj fb ->
      List.iter
        (fun (k, va) ->
          let kpath = path ^ "." ^ k in
          match List.assoc_opt k fb with
          | None -> found kpath (to_string va) "<missing field>" false
          | Some vb -> go kpath (machine || machine_key k) va vb)
        fa;
      List.iter
        (fun (k, vb) ->
          if not (List.mem_assoc k fa) then
            found (path ^ "." ^ k) "<no field>" (to_string vb) false)
        fb
    | List xa, List xb ->
      let la = List.length xa and lb = List.length xb in
      if la <> lb then
        found (path ^ ".length") (string_of_int la) (string_of_int lb) false;
      List.iteri
        (fun i (va, vb) -> go (Printf.sprintf "%s[%d]" path i) machine va vb)
        (List.combine
           (List.filteri (fun i _ -> i < min la lb) xa)
           (List.filteri (fun i _ -> i < min la lb) xb))
    | _ -> leaf path machine a b
  in
  go "$" false a b;
  List.rev !acc

let compare_docs ?tol docs_a docs_b =
  let la = List.length docs_a and lb = List.length docs_b in
  let single = la = 1 && lb = 1 in
  let label i = if single then "$" else Printf.sprintf "line %d $" (i + 1) in
  let rec go i acc a b =
    match (a, b) with
    | [], [] -> List.rev acc
    | [], extra ->
      List.rev acc
      @ [
          {
            path = Printf.sprintf "line %d" (i + 1);
            expected = "<end of file>";
            actual = Printf.sprintf "%d extra line(s)" (List.length extra);
            machine = false;
          };
        ]
    | missing, [] ->
      List.rev acc
      @ [
          {
            path = Printf.sprintf "line %d" (i + 1);
            expected = Printf.sprintf "%d more line(s)" (List.length missing);
            actual = "<end of file>";
            machine = false;
          };
        ]
    | va :: ra, vb :: rb ->
      let fs =
        List.map
          (fun f -> { f with path = label i ^ String.sub f.path 1 (String.length f.path - 1) })
          (compare_values ?tol va vb)
      in
      go (i + 1) (List.rev_append fs acc) ra rb
  in
  go 0 [] docs_a docs_b

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))

let load path =
  match read_file path with
  | Error e -> Error e
  | Ok content -> (
    (* A whole-file document (BENCH_*.json, --chrome output) parses in
       one piece; otherwise fall back to JSONL, one document per
       non-empty line. *)
    match Export.Json.of_string content with
    | Ok doc -> Ok [ doc ]
    | Error _ ->
      let lines =
        String.split_on_char '\n' content
        |> List.filter (fun l -> String.trim l <> "")
      in
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | l :: rest -> (
          match Export.Json.of_string l with
          | Ok j -> go (i + 1) (j :: acc) rest
          | Error e -> Error (Printf.sprintf "%s, line %d: %s" path i e))
      in
      go 1 [] lines)

let compare_files ?tol path_a path_b =
  match (load path_a, load path_b) with
  | Error e, _ | _, Error e -> Error e
  | Ok a, Ok b -> Ok (compare_docs ?tol a b)
