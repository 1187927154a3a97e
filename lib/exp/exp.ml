open Doall_sim
module Table = Doall_analysis.Table
module Export = Doall_obs.Export

type axes = {
  algos : string list;
  advs : string list;
  points : (int * int * int) list;
  seeds : int list;
  fault_tags : string list;
  transports : string list;
}

let axes ?(algos = []) ?(advs = []) ?(points = []) ?(seeds = [])
    ?(fault_tags = []) ?(transports = []) () =
  { algos; advs; points; seeds; fault_tags; transports }

type t = {
  id : string;
  doc : string;
  anchor : string;
  axes : axes;
  tables : string list;
  body : Ctx.t -> unit;
}

let make ~id ~doc ~anchor ?(axes = axes ()) ?(tables = []) body =
  { id; doc; anchor; axes; tables; body }

(* ------------------------------------------------------------------ *)
(* Registry. Registration happens at startup (Catalog.install) before
   any grid is launched, mirroring Runner.register_algorithm's
   contract; the mutex makes stray concurrent registration safe. *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 32
let order : string list ref = ref []
let registry_mutex = Mutex.create ()

let register e =
  Mutex.protect registry_mutex (fun () ->
      if Hashtbl.mem registry e.id then
        invalid_arg
          (Printf.sprintf "Exp.register: duplicate experiment id %S" e.id);
      Hashtbl.add registry e.id e;
      order := e.id :: !order)

let find id =
  Mutex.protect registry_mutex (fun () -> Hashtbl.find_opt registry id)

let all () =
  Mutex.protect registry_mutex (fun () ->
      List.rev_map (Hashtbl.find registry) !order)

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let one_liner e = Printf.sprintf "(%s) %s" e.anchor e.doc

let comma = String.concat ", "

let describe e =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%s — %s" e.id e.doc;
  line "  anchor: %s" e.anchor;
  let ax = e.axes in
  if ax.algos <> [] then line "  algos:  %s" (comma ax.algos);
  if ax.advs <> [] then line "  advs:   %s" (comma ax.advs);
  (match ax.points with
   | [] -> ()
   | points ->
     line "  points: %s"
       (comma
          (List.map (fun (p, t, d) -> Printf.sprintf "(p=%d,t=%d,d=%d)" p t d)
             points)));
  if ax.seeds <> [] then
    line "  seeds:  %s" (comma (List.map string_of_int ax.seeds));
  if ax.fault_tags <> [] then line "  faults: %s" (comma ax.fault_tags);
  if ax.transports <> [] then line "  transports: %s" (comma ax.transports);
  (match e.tables with
   | [] -> line "  tables: (text-only output)"
   | tables ->
     line "  tables: %s" (comma tables);
     line "  csv:    %s"
       (comma (List.map (fun n -> Printf.sprintf "%s-%s.csv" e.id n) tables)));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Engine. *)

type sink = {
  on_table : name:string -> Table.t -> unit;
  on_text : string -> unit;
}

let stdout_sink =
  { on_table = (fun ~name:_ tbl -> Table.print tbl); on_text = print_string }

let run ?jobs ?pool ?csv_dir ?jsonl ?(progress = false) ?(sink = stdout_sink)
    e =
  let on_table ~name tbl =
    sink.on_table ~name tbl;
    Option.iter
      (fun dir ->
        Table.write_csv tbl
          ~path:(Filename.concat dir (Printf.sprintf "%s-%s.csv" e.id name)))
      csv_dir;
    Option.iter (fun oc -> Export.write_table oc ~exp:e.id ~name tbl) jsonl
  in
  (* One pool for the whole experiment: a caller-owned one, or a
     transient one sized by ?jobs (never one per grid call). *)
  let owned, pool =
    match (pool, jobs) with
    | (Some _ as p), _ -> (None, p)
    | None, Some j ->
      let p = Pool.create ~jobs:j () in
      (Some p, Some p)
    | None, None -> (None, None)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Pool.shutdown owned)
    (fun () ->
      let ctx =
        Ctx.make ?pool ~progress ~label:e.id ~on_table
          ~on_text:sink.on_text ()
      in
      e.body ctx)
