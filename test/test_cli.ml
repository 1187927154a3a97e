(* The command line keeps one exit-status contract: 0 done, 1 a capped
   run or a failed check, 2 a rejected argument, never Cmdliner's 124
   (malformed command line) or 125 (an uncaught exception). A rejected
   argument prints "doall: FLAG: why" on stderr, naming a flag that is
   on the command line, and nothing on stdout. The built binary runs as
   a subprocess on argument vectors drawn from a small grammar per
   command: valid and unknown names, strategy specs good and bad,
   integers in and out of range, empty lists, output paths writable and
   not, and fault/transport pairs. Sizes stay small (p <= 8, t <= 32,
   --jobs <= 2), so no case starts a large run or many domains. *)

let exe = Filename.concat Filename.parent_dir_name "bin/doall_cli.exe"

(* exit code, stdout and stderr of [doall argv] *)
let doall argv =
  let out = Filename.temp_file "doall-cli" ".out" in
  let err = Filename.temp_file "doall-cli" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove out; Sys.remove err)
  @@ fun () ->
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let o = fd out and e = fd err in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: argv)) Unix.stdin o e
  in
  Unix.close o;
  Unix.close e;
  (* a signal is no exit status at all: -1 breaks the contract *)
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  (code, read out, read err)

let first_line s =
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

(* the flag a rejection names: "doall: FLAG: why" *)
let named_flag err =
  let line = first_line err and prefix = "doall: " in
  if not (String.starts_with ~prefix line) then None
  else
    let n = String.length prefix in
    let rest = String.sub line n (String.length line - n) in
    Option.map (fun i -> String.sub rest 0 i) (String.index_opt rest ':')

(* [flag] is on the command line: "--flag", "--flag=v" or a glued "-xV" *)
let on_command_line argv flag =
  List.exists
    (fun a ->
      a = flag
      || String.starts_with ~prefix:(flag ^ "=") a
      || (String.length flag = 2 && String.starts_with ~prefix:flag a))
    argv

let contract argv =
  let code, out, err = doall argv in
  match code with
  | 0 | 1 -> true
  | 2 -> (
    match named_flag err with
    | Some flag when on_command_line argv flag && out = "" -> true
    | _ ->
      QCheck2.Test.fail_reportf "exit 2: stdout %S, stderr %S" out
        (first_line err))
  | c -> QCheck2.Test.fail_reportf "exit %d, stderr %S" c err

(* ------------------------------------------------------------------ *)
(* The grammar *)

open QCheck2.Gen

(* mostly one of [good], sometimes one of [bad]: with eight flags a
   command, about half the vectors are valid *)
let mostly good bad = frequency [ (9, good); (1, bad) ]

(* an integer in [lo, hi] or one of [bad] *)
let int_in ?(bad = []) lo hi =
  let good = map string_of_int (int_range lo hi) in
  if bad = [] then good else mostly good (map string_of_int (oneofl bad))

(* "--name=v" for a long flag, a glued "-xv" for a short one *)
let opt name v =
  map
    (fun v -> [ (if String.length name = 2 then name ^ v else name ^ "=" ^ v) ])
    v

let maybe g = frequency [ (1, pure []); (1, g) ]
let switch name = maybe (pure [ name ])

let algos =
  [ "trivial"; "paran1"; "padet"; "coord"; "da-q2"; "da-q4"; "awq-q2";
    "awq-q4"; "awq-abd-q4" ]

let bad_names = [ "nosuch"; ""; "DA-Q4"; "strategy:" ]

let advs =
  [ "fair"; "max-delay"; "uniform-delay"; "lb-det"; "lb-rand"; "crash-half";
    "crash-all-but-one"; "lossy-half"; "dup-storm"; "flaky-restart"; "chaos";
    "chan-ordered"; "chan-rotor" ]

let spec =
  mostly
    (oneofl
       [ "sched=laggard;delay=max"; "sched=all;delay=max;fault=drop:0.5";
         "sched=rr:3;delay=const:2;crash=at:4:8:1" ])
    (oneofl [ "bogus"; "sched=solo"; "sched=random:nan"; "" ])

let name_of good = mostly (oneofl good) (oneofl bad_names)

let adv =
  mostly
    (frequency [ (3, oneofl advs); (1, map (( ^ ) "strategy:") spec) ])
    (oneofl bad_names)

let algo = opt "--algo" (name_of algos)
let p = opt "-p" (int_in ~bad:[ 0; -1; -7 ] 1 8)
let t = opt "-t" (int_in ~bad:[ 0; -3 ] 1 32)
(* 3e9 is past the ring cap, [Msg_ring.max_due] = 2^31 - 1 *)
let d = opt "-d" (int_in ~bad:[ -1; -5; 3_000_000_000 ] 0 16)
let seed = maybe (opt "--seed" (int_in (-3) 50))
let jobs = maybe (opt "--jobs" (int_in (-1) 2))
let max_time = maybe (opt "--max-time" (int_in ~bad:[ 0; -5 ] 1 60))

let transport =
  maybe
    (opt "--transport"
       (mostly (oneofl [ "ptp"; "channel"; "channel-detect" ]) (pure "bus")))

let faults =
  maybe
    (opt "--faults"
       (mostly
          (oneofl [ "drop=0.1"; "dup=0.2x2,reorder=0.1" ])
          (oneofl [ "drop=1.5"; "bogus" ])))

(* one to three entries, or sometimes none *)
let list_of g =
  mostly (map (String.concat ",") (list_size (int_range 1 3) g)) (pure "")

(* An output path: stdout, a writable temporary file, or a path that
   cannot be written (a missing directory, or a directory itself). *)
let out_file =
  let tmp = Filename.temp_file "doall-cli" ".jsonl" in
  at_exit (fun () -> if Sys.file_exists tmp then Sys.remove tmp);
  mostly (oneofl [ "-"; tmp ])
    (oneofl [ "/nonexistent/x.jsonl"; Filename.get_temp_dir_name () ])

let args parts = map List.concat (flatten_l parts)

let run_args =
  [ algo;
    frequency
      [ (3, opt "--adv" adv); (1, opt "--strategy" spec); (1, pure []) ];
    p; t; d; seed; switch "--check"; faults; max_time; transport;
    maybe (opt "--obs" out_file) ]

let commands =
  [
    ("run", args (pure [ "run" ] :: run_args));
    ("run --trace", args (pure [ "run"; "--trace" ] :: run_args));
    ("trace", args [ pure [ "trace" ]; algo; opt "--adv" adv; p; t; d; seed;
                     transport; maybe (opt "--jsonl" out_file);
                     maybe (opt "--chrome" out_file) ]);
    ("sweep",
     args [ pure [ "sweep" ]; algo; opt "--adv" adv; p; t;
            opt "--delays" (list_of (int_in ~bad:[ -2; -1 ] 0 16)); seed;
            jobs; switch "--check"; faults; transport ]);
    ("compare",
     args [ pure [ "compare" ]; opt "--algos" (list_of (name_of algos));
            opt "--adv" adv; p; t; d; seed; jobs; switch "--check"; faults;
            transport ]);
    ("synth",
     args [ pure [ "synth"; "--quick" ];
            opt "--budget" (int_in ~bad:[ 0; -1 ] 2 2); algo; p; t; d; seed;
            maybe
              (opt "--fitness"
                 (mostly (oneofl [ "work"; "sigma"; "cap-hits" ]) (pure "x")));
            maybe
              (opt "--space"
                 (mostly
                    (oneofl [ "full"; "live"; "in-model"; "quorum-safe" ])
                    (pure "y")));
            max_time; switch "--no-check"; jobs; transport;
            maybe (opt "--out" out_file) ]);
    ("contention",
     args [ pure [ "contention" ];
            opt "-n" (int_in ~bad:[ 9; 1; 0; -2 ] 2 8); seed ]);
    ("lemma32",
     args
       [ pure [ "lemma32" ]; opt "--u-max" (int_in ~bad:[ 1; 0; -4 ] 2 300) ]);
  ]

let prop_contract (name, argv) =
  QCheck2.Test.make
    ~name:(Printf.sprintf "doall %s keeps the exit-status contract" name)
    ~count:30 ~print:(String.concat " ") argv contract

(* The rejections that used to escape as an uncaught exception (exit
   125), print no flag, or pass, and the capped runs that exited 0 or
   125: each pinned with its exit code and the flag it names. *)
let probes =
  [
    ([ "trace"; "--adv"; "nosuch" ], 2, Some "--adv");
    ([ "sweep"; "--adv"; "nosuch" ], 2, Some "--adv");
    ([ "compare"; "--adv"; "nosuch" ], 2, Some "--adv");
    ([ "compare"; "--algos"; "nosuch" ], 2, Some "--algos");
    ([ "trace"; "--adv"; "strategy:bogus" ], 2, Some "--adv");
    ([ "sweep"; "-p"; "0" ], 2, Some "-p");
    ([ "sweep"; "--delays=-2,1" ], 2, Some "--delays");
    ([ "sweep"; "--faults"; "drop=0.1"; "--transport"; "channel" ], 2,
     Some "--faults");
    ([ "trace"; "-p"; "0" ], 2, Some "-p");
    ([ "run"; "--max-time=-5" ], 2, Some "--max-time");
    ([ "run"; "-p"; "2"; "-t"; "4"; "--adv"; "chaos"; "--transport";
       "channel" ], 2, Some "--transport");
    ([ "synth"; "--space"; "live"; "--transport"; "channel" ], 2,
     Some "--space");
    ([ "contention"; "-n"; "9" ], 2, Some "-n");
    ([ "lemma32"; "--u-max=0" ], 2, Some "--u-max");
    ([ "run"; "-p"; "2"; "-t"; "4"; "--obs"; "/nonexistent/x.jsonl" ], 2,
     Some "--obs");
    ([ "trace"; "-p"; "2"; "-t"; "4"; "--jsonl"; "/nonexistent/x.jsonl" ], 2,
     Some "--jsonl");
    ([ "trace"; "-p"; "2"; "-t"; "4"; "--chrome"; "/nonexistent/x.json" ], 2,
     Some "--chrome");
    ([ "synth"; "--quick"; "--budget"; "2"; "--out"; "/nonexistent/x" ], 2,
     Some "--out");
    ([ "exp"; "run"; "e1"; "--csv"; "/nonexistent/csv" ], 2, Some "--csv");
    ([ "exp"; "run"; "e1"; "--jsonl"; "/nonexistent/x.jsonl" ], 2,
     Some "--jsonl");
    ([ "compare"; "--algos=" ], 2, Some "--algos");
    ([ "sweep"; "--delays=" ], 2, Some "--delays");
    ([ "run"; "-p"; "8"; "-t"; "64"; "-d"; "3000000000"; "--adv";
       "uniform-delay" ], 2, Some "-d");
    ([ "run"; "-p"; "8"; "-t"; "32"; "-d"; "3000000000"; "--adv";
       "max-delay" ], 2, Some "-d");
    ([ "sweep"; "--delays=1,3000000000" ], 2, Some "--delays");
    ([ "run"; "--algo"; "paran1"; "--adv"; "fair"; "-p"; "4"; "-t"; "64";
       "--max-time"; "3"; "--trace" ], 1, None);
    ([ "sweep"; "--algo"; "awq-q2"; "--adv"; "chaos"; "-p"; "2"; "-t"; "5";
       "--delays"; "1" ], 1, None);
    (* a delay at the ring cap leaves no time before a due would pass
       it: the run stops capped at time 0 *)
    ([ "run"; "-p"; "8"; "-t"; "64"; "-d"; "2147483647"; "--adv";
       "uniform-delay" ], 1, None);
  ]

let test_probes () =
  List.iter
    (fun (argv, want, flag) ->
      let what = String.concat " " argv in
      let code, out, err = doall argv in
      Alcotest.(check int) (what ^ ": exit") want code;
      match flag with
      | None -> ()
      | Some flag ->
        Alcotest.(check (option string)) (what ^ ": flag") (Some flag)
          (named_flag err);
        Alcotest.(check string) (what ^ ": stdout") "" out)
    probes

(* A capped run keeps exit 1 and still writes its --obs snapshot, the
   metrics line saying the run did not complete: the stalled runs are
   the ones whose gauges explain a stall. *)
let test_capped_run_writes_obs () =
  let obs = Filename.temp_file "doall-cli" ".jsonl" in
  Sys.remove obs;
  Fun.protect ~finally:(fun () -> if Sys.file_exists obs then Sys.remove obs)
  @@ fun () ->
  let code, out, _ =
    doall
      [ "run"; "--algo"; "paran1"; "--adv"; "fair"; "-p"; "4"; "-t"; "64";
        "--max-time"; "3"; "--obs"; obs ]
  in
  Alcotest.(check int) "capped run exits 1" 1 code;
  Alcotest.(check string) "partial metrics on stdout"
    "partial p=4 t=64 d=8 | W=12 M=36 sigma=3 exec=12 redundant=12 [TIMED \
     OUT]\n"
    out;
  Alcotest.(check bool) "snapshot written" true (Sys.file_exists obs);
  let lines = In_channel.with_open_bin obs In_channel.input_lines in
  Alcotest.(check bool) "metrics line says not completed" true
    (List.exists
       (fun l ->
         String.starts_with ~prefix:{|{"v":1,"kind":"metrics",|} l
         && Str.string_match (Str.regexp {|.*"completed":false|}) l 0)
       lines)

let suite =
  Alcotest.test_case "rejections and capped runs pinned" `Quick test_probes
  :: Alcotest.test_case "capped run writes its obs snapshot" `Quick
       test_capped_run_writes_obs
  :: List.map
       (fun c ->
         QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC11 |])
           (prop_contract c))
       commands
