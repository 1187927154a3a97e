(** Declarative experiment specs, the registry, and the run engine.

    An experiment is data: an id, a one-line doc, the paper anchor it
    reproduces, its axes (algorithms x adversaries x (p, t, d) points x
    seeds x fault overlays) and the stable names of the tables it emits
    — plus a body that renders those tables through a {!Ctx.t}. The
    engine ({!run}) owns everything the bodies used to hand-roll:
    pool parallelism, progress, seed averaging, the per-experiment cell
    memo cache, and the output sinks (pretty table / [<id>-<name>.csv] /
    versioned JSONL via {!Doall_obs.Export}).

    The built-in specs live in {!Catalog}; [doall exp] executes the
    registry, so adding one spec surfaces it there. *)

type axes = {
  algos : string list;
  advs : string list;
  points : (int * int * int) list;  (** (p, t, d) grid points *)
  seeds : int list;
  fault_tags : string list;
      (** fault-overlay tags swept (e.g. ["drop=0.50"]); [[]] means the
          paper's reliable network *)
  transports : string list;
      (** transport backends swept (e.g. ["ptp"; "channel"]); [[]]
          means point-to-point only, the paper's model *)
}

val axes :
  ?algos:string list ->
  ?advs:string list ->
  ?points:(int * int * int) list ->
  ?seeds:int list ->
  ?fault_tags:string list ->
  ?transports:string list ->
  unit ->
  axes
(** All components default to [[]]; axes are descriptive metadata for
    [describe] and docs — the body remains the executable truth. *)

type t = {
  id : string;
  doc : string;  (** one line; shown by [list] and unknown-id errors *)
  anchor : string;  (** paper anchor, e.g. ["Prop 2.2"] *)
  axes : axes;
  tables : string list;
      (** stable table names, in emission order; table [n] of experiment
          [id] lands in [<id>-<n>.csv] under [--csv] *)
  body : Ctx.t -> unit;
}

val make :
  id:string ->
  doc:string ->
  anchor:string ->
  ?axes:axes ->
  ?tables:string list ->
  (Ctx.t -> unit) ->
  t

(** {1 Registry} *)

val register : t -> unit
(** Raises [Invalid_argument] on a duplicate id. *)

val find : string -> t option

val all : unit -> t list
(** In registration order — the order a bare [doall exp run] runs them in. *)

(** {1 Rendering} *)

val one_liner : t -> string
(** ["(anchor) doc"] — the [list] line body. *)

val describe : t -> string
(** Multi-line spec rendering: id, anchor, doc, axes, tables and their
    CSV artifact names. *)

(** {1 Engine} *)

type sink = {
  on_table : name:string -> Doall_analysis.Table.t -> unit;
  on_text : string -> unit;
}

val run :
  ?jobs:int ->
  ?pool:Doall_sim.Pool.t ->
  ?csv_dir:string ->
  ?jsonl:out_channel ->
  ?progress:bool ->
  ?sink:sink ->
  t ->
  unit
(** Execute one experiment through a fresh {!Ctx.t}. [?pool] reuses a
    caller-owned pool; otherwise [?jobs] creates one transient pool for
    the whole experiment (not per grid). [?csv_dir] writes every emitted
    table as [<id>-<name>.csv]; [?jsonl] appends [table]/[row] lines
    (schema in docs/OBSERVABILITY.md). [?sink] receives every table
    and text block in emission order (default: [Table.print] and
    [print_string]). Results are bit-identical for every [jobs >= 1]. *)
