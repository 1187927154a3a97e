open Doall_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let events tr = List.rev (Trace.fold tr ~init:[] ~f:(fun acc e -> e :: acc))

(* the rows [Trace.pp_timeline] prints, without their "pNNN |" label
   and closing bar *)
let timeline tr ~p ~until =
  Format.asprintf "%a" Trace.pp_timeline (tr, p, until)
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l -> String.sub l 6 until)
  |> Array.of_list

let test_record_order () =
  let tr = Trace.create () in
  Trace.add tr (Trace.Step { time = 0; pid = 1 });
  Trace.add tr (Trace.Perform { time = 1; pid = 0; task = 3; fresh = true });
  check_int "length" 2 (Trace.length tr);
  match events tr with
  | [ Trace.Step { time = 0; pid = 1 }; Trace.Perform { task = 3; _ } ] -> ()
  | _ -> Alcotest.fail "wrong order"

let test_timeline_symbols () =
  let tr = Trace.create () in
  Trace.add tr (Trace.Perform { time = 0; pid = 0; task = 1; fresh = true });
  Trace.add tr (Trace.Delayed { time = 0; pid = 1 });
  Trace.add tr (Trace.Step { time = 1; pid = 0 });
  Trace.add tr (Trace.Halt { time = 2; pid = 0 });
  Trace.add tr (Trace.Crash { time = 1; pid = 1 });
  let rows = timeline tr ~p:2 ~until:4 in
  check_int "two rows" 2 (Array.length rows);
  check "perform mark" true (rows.(0).[0] = '#');
  check "step mark" true (rows.(0).[1] = 'o');
  check "halt mark" true (rows.(0).[2] = 'H');
  check "post-halt fill" true (rows.(0).[3] = 'h');
  check "delayed mark" true (rows.(1).[0] = '.');
  check "crash mark" true (rows.(1).[1] = 'X');
  check "post-crash fill" true (rows.(1).[2] = 'x')

let test_timeline_clips () =
  let tr = Trace.create () in
  Trace.add tr (Trace.Perform { time = 99; pid = 0; task = 0; fresh = false });
  let rows = timeline tr ~p:1 ~until:10 in
  check "out-of-window event ignored" true (rows.(0) = String.make 10 ' ')

let test_fold () =
  let tr = Trace.create () in
  for i = 0 to 999 do
    Trace.add tr (Trace.Step { time = i; pid = i mod 7 })
  done;
  check_int "fold counts all" 1000
    (Trace.fold tr ~init:0 ~f:(fun acc _ -> acc + 1));
  (* fold visits in recording order and agrees with [events] *)
  let times =
    Trace.fold tr ~init:[] ~f:(fun acc e ->
        match e with Trace.Step { time; _ } -> time :: acc | _ -> acc)
  in
  check "fold visits in recording order" true
    (List.rev times = List.init 1000 Fun.id)

let test_pp_timeline_output () =
  let tr = Trace.create () in
  Trace.add tr (Trace.Step { time = 0; pid = 0 });
  let s = Format.asprintf "%a" Trace.pp_timeline (tr, 1, 2) in
  check "labelled row" true (String.length s > 0 && s.[0] = 'p')

let suite =
  [
    Alcotest.test_case "record order" `Quick test_record_order;
    Alcotest.test_case "timeline symbols" `Quick test_timeline_symbols;
    Alcotest.test_case "timeline clips window" `Quick test_timeline_clips;
    Alcotest.test_case "fold" `Quick test_fold;
    Alcotest.test_case "pp_timeline" `Quick test_pp_timeline_output;
  ]
