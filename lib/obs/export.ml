(* See export.mli. *)

open Doall_sim

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let float_repr f =
    if not (Float.is_finite f) then "null"
    else
      (* shortest representation that is still a valid JSON number *)
      let s = Printf.sprintf "%.12g" f in
      if String.contains s '.' || String.contains s 'e'
         || String.contains s 'E'
      then s
      else s ^ ".0"

  let rec render ~indent ~level buf j =
    let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ')
    in
    let sep () = if indent then Buffer.add_char buf '\n' in
    match j with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List xs ->
      Buffer.add_char buf '[';
      sep ();
      List.iteri
        (fun i x ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            sep ()
          end;
          pad (level + 1);
          render ~indent ~level:(level + 1) buf x)
        xs;
      sep ();
      pad level;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      sep ();
      List.iteri
        (fun i (k, v) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            sep ()
          end;
          pad (level + 1);
          escape buf k;
          Buffer.add_string buf (if indent then ": " else ":");
          render ~indent ~level:(level + 1) buf v)
        fields;
      sep ();
      pad level;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    render ~indent:false ~level:0 buf j;
    Buffer.contents buf

  let to_channel oc j = output_string oc (to_string j)

  let pp_to_channel oc j =
    let buf = Buffer.create 4096 in
    render ~indent:true ~level:0 buf j;
    Buffer.add_char buf '\n';
    output_string oc (Buffer.contents buf)

  exception Parse_error of string

  let max_depth = 512

  (* Recursive-descent parser for everything this module writes (and for
     general RFC 8259 documents). Numeric literals written with '.', 'e'
     or 'E' parse as [Float], bare integers as [Int] — [float_repr]
     guarantees every float we print carries one of those characters, so
     the distinction round-trips and Diff can apply exact-vs-tolerance
     rules from the parsed value alone. *)
  let of_string input =
    let n = String.length input in
    let pos = ref 0 in
    let fail msg =
      raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
    in
    let peek () = if !pos < n then Some input.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && (match input.[!pos] with
            | ' ' | '\t' | '\n' | '\r' -> true
            | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && input.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let lit word v =
      let l = String.length word in
      if !pos + l <= n && String.sub input !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ word)
    in
    let add_utf8 buf code =
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match input.[!pos] with
        | '"' ->
          incr pos;
          Buffer.contents buf
        | '\\' ->
          incr pos;
          if !pos >= n then fail "truncated escape";
          (match input.[!pos] with
           | '"' -> Buffer.add_char buf '"'; incr pos
           | '\\' -> Buffer.add_char buf '\\'; incr pos
           | '/' -> Buffer.add_char buf '/'; incr pos
           | 'b' -> Buffer.add_char buf '\b'; incr pos
           | 'f' -> Buffer.add_char buf '\012'; incr pos
           | 'n' -> Buffer.add_char buf '\n'; incr pos
           | 'r' -> Buffer.add_char buf '\r'; incr pos
           | 't' -> Buffer.add_char buf '\t'; incr pos
           | 'u' ->
             if !pos + 4 >= n then fail "truncated \\u escape";
             let code = ref 0 in
             for k = !pos + 1 to !pos + 4 do
               let h =
                 match input.[k] with
                 | '0' .. '9' as c -> Char.code c - Char.code '0'
                 | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                 | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                 | _ -> fail "bad \\u escape"
               in
               code := (!code lsl 4) lor h
             done;
             add_utf8 buf !code;
             pos := !pos + 5
           | _ -> fail "bad escape");
          go ()
        | c when Char.code c < 0x20 -> fail "unescaped control character"
        | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
      in
      go ()
    in
    (* RFC 8259: -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
    let well_formed tok =
      let len = String.length tok and i = ref 0 in
      let at c = !i < len && tok.[!i] = c in
      let digits () =
        let start = !i in
        while !i < len && tok.[!i] >= '0' && tok.[!i] <= '9' do
          incr i
        done;
        !i > start
      in
      if at '-' then incr i;
      (if at '0' then (incr i; true) else digits ())
      && (if at '.' then (incr i; digits ()) else true)
      && (if at 'e' || at 'E' then begin
            incr i;
            if at '+' || at '-' then incr i;
            digits ()
          end
          else true)
      && !i = len
    in
    let parse_number () =
      let start = !pos in
      if peek () = Some '-' then incr pos;
      while
        !pos < n
        && (match input.[!pos] with
            | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
            | _ -> false)
      do
        incr pos
      done;
      let tok = String.sub input start (!pos - start) in
      if not (well_formed tok) then fail "bad number";
      if
        String.contains tok '.' || String.contains tok 'e'
        || String.contains tok 'E'
      then
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> (
          (* integer literal overflowing 63 bits: fall back to float *)
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "bad number")
    in
    (* [depth] containers enclose the value; bounded, so that no input
       can overflow the stack *)
    let rec parse_value depth =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some ('{' | '[') when depth >= max_depth -> fail "nesting too deep"
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              members ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              elements ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> lit "true" (Bool true)
      | Some 'f' -> lit "false" (Bool false)
      | Some 'n' -> lit "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then fail "trailing input";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg
end

let version = 1

let line oc ~kind fields =
  Json.to_channel oc
    (Json.Obj (("v", Json.Int version) :: ("kind", Json.Str kind) :: fields));
  output_char oc '\n'

let metrics_fields (m : Metrics.t) =
  Json.
    [
      ("p", Int m.Metrics.p);
      ("t", Int m.Metrics.t);
      ("d", Int m.Metrics.d);
      ("work", Int m.Metrics.work);
      ("messages", Int m.Metrics.messages);
      ("sigma", Int m.Metrics.sigma);
      ("executions", Int m.Metrics.executions);
      ("redundant", Int (Metrics.redundant m));
      ("completed", Bool m.Metrics.completed);
      ("halted", Int m.Metrics.halted);
      ("crashed", Int m.Metrics.crashed);
      ( "per_proc_work",
        List (Array.to_list (Array.map (fun w -> Int w) m.Metrics.per_proc_work))
      );
    ]

let trace_event_fields (ev : Trace.event) =
  let open Json in
  match ev with
  | Trace.Step { time; pid } ->
    [ ("type", Str "step"); ("time", Int time); ("pid", Int pid) ]
  | Trace.Delayed { time; pid } ->
    [ ("type", Str "delayed"); ("time", Int time); ("pid", Int pid) ]
  | Trace.Perform { time; pid; task; fresh } ->
    [
      ("type", Str "perform");
      ("time", Int time);
      ("pid", Int pid);
      ("task", Int task);
      ("fresh", Bool fresh);
    ]
  | Trace.Broadcast { time; src; copies } ->
    [
      ("type", Str "broadcast");
      ("time", Int time);
      ("src", Int src);
      ("copies", Int copies);
    ]
  | Trace.Halt { time; pid } ->
    [ ("type", Str "halt"); ("time", Int time); ("pid", Int pid) ]
  | Trace.Crash { time; pid } ->
    [ ("type", Str "crash"); ("time", Int time); ("pid", Int pid) ]
  | Trace.Restart { time; pid } ->
    [ ("type", Str "restart"); ("time", Int time); ("pid", Int pid) ]
  | Trace.Note { time; text } ->
    [ ("type", Str "note"); ("time", Int time); ("text", Str text) ]

let snapshot_lines (s : Probe.snapshot) =
  let open Json in
  let counters =
    List.map
      (fun (name, v) ->
        ("counter", [ ("name", Str name); ("value", Int v) ]))
      s.Probe.counters
  in
  let gauges =
    List.map
      (fun (name, (last, max)) ->
        ("gauge", [ ("name", Str name); ("last", Int last); ("max", Int max) ]))
      s.Probe.gauges
  in
  let histograms =
    List.map
      (fun (name, (h : Probe.histogram_snapshot)) ->
        let pctl q =
          let lo, hi = Probe.percentile h q in
          List [ Int lo; Int hi ]
        in
        ( "histogram",
          [
            ("name", Str name);
            ("count", Int h.Probe.count);
            ("sum", Int h.Probe.sum);
            ("max", Int h.Probe.max);
            ("p50", pctl 0.50);
            ("p90", pctl 0.90);
            ("p99", pctl 0.99);
            ( "buckets",
              List
                (List.map
                   (fun (i, n) ->
                     let lo, hi = Probe.bucket_bounds i in
                     Obj [ ("lo", Int lo); ("hi", Int hi); ("n", Int n) ])
                   h.Probe.buckets) );
          ] ))
      s.Probe.histograms
  in
  let vectors =
    List.map
      (fun (name, values) ->
        ( "vector",
          [
            ("name", Str name);
            ("values", List (Array.to_list (Array.map (fun v -> Int v) values)));
          ] ))
      s.Probe.vectors
  in
  let series =
    List.map
      (fun (name, points) ->
        ( "series",
          [
            ("name", Str name);
            ( "points",
              List
                (Array.to_list
                   (Array.map
                      (fun (t, v) -> List [ Int t; Int v ])
                      points)) );
          ] ))
      s.Probe.series
  in
  counters @ gauges @ histograms @ vectors @ series

let spans_fields (sp : Span.snapshot) =
  let open Json in
  [
    ( "phases",
      List
        (List.map
           (fun (name, (total, count)) ->
             Obj
               [
                 ("name", Str name);
                 ("wall_s", Float total);
                 ("count", Int count);
               ])
           sp) );
  ]

let write_run oc ~meta ?snapshot ?spans m =
  line oc ~kind:"run" meta;
  line oc ~kind:"metrics" (metrics_fields m);
  (match snapshot with
   | None -> ()
   | Some s ->
     List.iter (fun (kind, fields) -> line oc ~kind fields) (snapshot_lines s));
  match spans with
  | None -> ()
  | Some sp -> line oc ~kind:"phases" (spans_fields sp)

let write_trace oc ~meta m trace =
  line oc ~kind:"trace"
    (meta @ [ ("events", Json.Int (Trace.length trace)) ]);
  line oc ~kind:"metrics" (metrics_fields m);
  Trace.fold trace ~init:() ~f:(fun () ev ->
      line oc ~kind:"event" (trace_event_fields ev))

let write_table oc ~exp ~name tbl =
  let module Table = Doall_analysis.Table in
  let columns = Table.columns tbl in
  line oc ~kind:"table"
    Json.
      [
        ("exp", Str exp);
        ("name", Str name);
        ("title", Str (Table.title tbl));
        ("columns", List (List.map (fun c -> Str c) columns));
        ("rows", Int (List.length (Table.rows tbl)));
        ("notes", List (List.map (fun n -> Str n) (Table.notes tbl)));
      ];
  List.iter
    (fun row ->
      line oc ~kind:"row"
        Json.
          [
            ("exp", Str exp);
            ("name", Str name);
            ( "cells",
              Obj (List.map2 (fun c cell -> (c, Str cell)) columns row) );
          ])
    (Doall_analysis.Table.rows tbl)

let with_out path f =
  if path = "-" then begin
    f stdout;
    flush stdout
  end
  else begin
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
  end
