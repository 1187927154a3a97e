(* The text input surfaces — strategy specs, fault specs and JSON
   documents — never raise: any string gives [Ok] or [Error]. Inputs are
   random bytes, soups of each grammar's own tokens, and one-character
   edits of valid inputs. Malformed inputs built on purpose (a bad field
   spliced into a valid spec, a truncated or corrupted document) give
   [Error], and every [Ok] is canonical: printing and re-parsing it
   changes nothing. *)

open Doall_adversary
open Doall_obs
module Json = Export.Json

let junk =
  QCheck2.Gen.(
    string_size (int_range 0 40)
      ~gen:
        (frequency
           [
             (4, printable);
             (1, oneofl [ '\000'; '\n'; '\t'; '\255'; '"'; '\\'; '|'; ';' ]);
           ]))

let soup tokens =
  QCheck2.Gen.(
    map (String.concat "") (list_size (int_range 0 14) (oneofl tokens)))

(* delete, insert, replace or duplicate at one position, or truncate *)
let edit s =
  QCheck2.Gen.(
    let n = String.length s in
    let* i = int_range 0 n in
    let* c = oneof [ printable; oneofl [ '\000'; '"'; '\\'; ':'; '=' ] ] in
    let before = String.sub s 0 i and after = String.sub s i (n - i) in
    let tail = if n > i then String.sub s (i + 1) (n - i - 1) else "" in
    oneofl
      [
        before ^ tail;
        before ^ String.make 1 c ^ after;
        before ^ String.make 1 c ^ tail;
        before ^ after ^ after;
        before;
      ])

let inputs ~valid ~tokens =
  QCheck2.Gen.(
    frequency
      [ (1, junk); (2, soup tokens); (3, oneofl valid >>= edit) ])

(* ------------------------------------------------------------------ *)
(* Strategy specs *)

let valid_strategies =
  [
    "sched=laggard;delay=max;fault=drop:0.5;for=64|sched=all;delay=const:1";
    "sched=all;delay=max;crash=flaky:4:4";
    "sched=rr:3;delay=churn:2:5;crash=at:4:32:1;chan=both:4:2";
    "sched=random:0.25;delay=bimodal:0.783;crash=poisson:0.1;fault=dup:0.2:2;fault=reorder:0.1";
    "sched=solo:3;delay=stage:8;crash=staggered:5|sched=harmonic;delay=target:4";
    "sched=all;delay=partition:3;chan=ordered:2";
  ]

let strategy_tokens =
  [
    "sched="; "delay="; "crash="; "fault="; "chan="; "for="; "="; ":"; ";";
    "|"; " "; "all"; "solo"; "rr"; "random"; "harmonic"; "laggard"; "const";
    "max"; "uniform"; "bimodal"; "stage"; "partition"; "target"; "churn";
    "none"; "at"; "staggered"; "poisson"; "flaky"; "drop"; "dup"; "reorder";
    "ordered"; "delayed"; "both"; "0"; "1"; "-1"; "0.5"; "nan"; "inf";
    "-inf"; "1e308"; "4611686018427387903"; "99999999999999999999"; "0x10";
  ]

(* each field is malformed on its own, or repeats a key every valid
   phase above already has *)
let bad_strategy_fields =
  [
    "bogus=1"; "sched"; "sched="; "sched=solo"; "sched=solo:x";
    "sched=solo:1:2"; "sched=random:nan"; "sched=random:inf"; "delay=const:";
    "delay=churn:1"; "delay=bimodal:-nan"; "crash=at:1:2"; "crash=poisson:nan";
    "fault=dup:0.5"; "fault=drop"; "chan=both:1"; "for=0"; "for=-3";
    "for=1.5"; "sched=all"; "delay=max"; "=1";
  ]

let strategy_canonical st =
  let spec = Strategy.to_spec st in
  match Strategy.of_spec spec with
  | Ok st' -> Strategy.to_spec st' = spec
  | Error _ -> false

let prop_strategy_total =
  QCheck2.Test.make ~name:"Strategy.of_spec never raises; Ok is canonical"
    ~count:2000 ~print:String.escaped
    (inputs ~valid:valid_strategies ~tokens:strategy_tokens)
    (fun s ->
      match Strategy.of_spec s with
      | Ok st -> strategy_canonical st
      | Error _ -> true)

let prop_strategy_malformed =
  QCheck2.Test.make ~name:"Strategy.of_spec rejects a malformed field"
    ~count:500 ~print:String.escaped
    QCheck2.Gen.(
      let* spec = oneofl valid_strategies in
      let* bad = oneofl bad_strategy_fields in
      let phases = String.split_on_char '|' spec in
      let* k = int_range 0 (List.length phases - 1) in
      return
        (String.concat "|"
           (List.mapi (fun i ph -> if i = k then ph ^ ";" ^ bad else ph) phases)))
    (fun s -> Result.is_error (Strategy.of_spec s))

(* ------------------------------------------------------------------ *)
(* Fault specs *)

let valid_faults =
  [ "drop=0.3,dup=0.2x2,reorder=0.1"; "dup=0.5"; "reorder=1"; "drop=0" ]

let fault_tokens =
  [
    "drop="; "dup="; "reorder="; "="; ","; "x"; " "; "0"; "1"; "0.5"; "2";
    "-1"; "1.5"; "nan"; "inf"; "1e-9"; "99999999999999999999";
  ]

let bad_fault_fields =
  [
    "drop"; "drop="; "drop=1.5"; "drop=-0.1"; "drop=nan"; "dup=0.5x0";
    "dup=0.5x"; "dup=x2"; "dup=0.5x2x3"; "dup=2"; "reorder=abc"; "bogus=0.1";
    "=0.1";
  ]

let prop_fault_total =
  QCheck2.Test.make ~name:"Fault.of_spec never raises; its name is canonical"
    ~count:2000 ~print:String.escaped
    (inputs ~valid:valid_faults ~tokens:fault_tokens)
    (fun s ->
      match Fault.of_spec s with
      | Ok (_, name) -> (
        match Fault.of_spec name with
        | Ok (_, name') -> name' = name
        | Error _ -> false)
      | Error _ -> true)

let prop_fault_malformed =
  QCheck2.Test.make ~name:"Fault.of_spec rejects a malformed field" ~count:300
    ~print:String.escaped
    QCheck2.Gen.(
      let* spec = oneofl ("" :: valid_faults) in
      let* bad = oneofl bad_fault_fields in
      let* first = bool in
      return
        (if spec = "" then bad
         else if first then bad ^ "," ^ spec
         else spec ^ "," ^ bad))
    (fun s -> Result.is_error (Fault.of_spec s))

(* ------------------------------------------------------------------ *)
(* JSON documents *)

let json_gen =
  QCheck2.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self depth ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) (oneof [ small_signed_int; int ]);
                 map
                   (fun f -> Json.Float f)
                   (oneof [ float_range (-1e6) 1e6; oneofl [ 0.5; 1e-7; 1e300 ] ]);
                 map (fun s -> Json.Str s) (string_size (int_range 0 8));
               ]
           in
           if depth = 0 then leaf
           else
             let sub = self (depth - 1) in
             frequency
               [
                 (1, leaf);
                 (2, map (fun l -> Json.List l) (list_size (int_range 0 4) sub));
                 ( 2,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_range 0 4)
                        (pair (string_size (int_range 0 5)) sub)) );
               ]))

let render = QCheck2.Gen.map Json.to_string json_gen

let json_tokens =
  [
    "{"; "}"; "["; "]"; ","; ":"; "\""; "\\"; "\\u"; "\\u00e9"; "\\uZZ";
    "true"; "tru"; "null"; "false"; "0"; "-"; "01"; "1."; ".5"; "1e";
    "1e+5"; "-0.0"; "99999999999999999999"; " "; "\n"; "\001"; "\"a\"";
  ]

(* A printed value parses back to a value that prints the same: floats
   go through %.12g once, so compare renderings, not values. *)
let json_canonical v =
  let s = Json.to_string v in
  match Json.of_string s with Ok v' -> Json.to_string v' = s | Error _ -> false

let prop_json_total =
  QCheck2.Test.make ~name:"Json.of_string never raises; Ok round-trips"
    ~count:2000 ~print:String.escaped
    QCheck2.Gen.(
      frequency
        [
          (1, junk);
          (2, soup json_tokens);
          (2, render >>= edit);
          (1, render);
        ])
    (fun s ->
      match Json.of_string s with Ok v -> json_canonical v | Error _ -> true)

(* A document that opens a list or object is malformed when cut short,
   when followed by more input, or when one of its values is replaced by
   a malformed literal. *)
let bad_literals =
  [
    "01"; "-01"; "1."; ".5"; "+1"; "1e"; "1.e5"; "-"; "--1"; "1-2"; "0x10";
    "tru"; "nul"; "'a'"; "\"a\nb\""; "\"\\x\""; "\"\\u12\""; "\"\\u_123\"";
    "\"\\u12G4\""; "\"abc"; "[1,]"; "{\"a\"}"; "{\"a\":1,}"; "{a:1}";
  ]

let prop_json_malformed =
  QCheck2.Test.make ~name:"Json.of_string rejects a malformed document"
    ~count:1000 ~print:String.escaped
    QCheck2.Gen.(
      let* items = list_size (int_range 1 4) json_gen in
      let doc = Json.to_string (Json.List items) in
      let n = String.length doc in
      oneof
        [
          map (fun k -> String.sub doc 0 k) (int_range 0 (n - 1));
          map (fun junk -> doc ^ " " ^ junk) (oneofl [ "x"; "1"; "{}"; "," ]);
          map
            (fun bad ->
              let rendered = List.map Json.to_string items in
              "[" ^ String.concat "," (rendered @ [ bad ]) ^ "]")
            (oneofl bad_literals);
        ])
    (fun s -> Result.is_error (Json.of_string s))

(* Nesting is bounded, so no document can overflow the parser's stack:
   512 levels parse, deeper ones are an [Error]. *)
let test_json_depth () =
  let nested k = String.make k '[' ^ String.make k ']' in
  Alcotest.(check bool) "512 levels" true (Result.is_ok (Json.of_string (nested 512)));
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "%d levels" k)
        true
        (Result.is_error (Json.of_string (nested k))))
    [ 513; 1_000_000 ]

let suite =
  Alcotest.test_case "JSON nesting is bounded" `Quick test_json_depth
  :: List.map QCheck_alcotest.to_alcotest
    [
      prop_strategy_total;
      prop_strategy_malformed;
      prop_fault_total;
      prop_fault_malformed;
      prop_json_total;
      prop_json_malformed;
    ]
