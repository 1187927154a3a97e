(** Aligned text tables and CSV export for the experiment harness. *)

type t

val create : title:string -> columns:string list -> t
val add_row : t -> string list -> unit
(** Row length must match the column count. *)

val add_note : t -> string -> unit
(** Free-text line printed under the table. *)

(** Accessors (rows and notes in insertion order) — used by the
    structured exporters in [lib/obs]. *)

val title : t -> string
val columns : t -> string list
val rows : t -> string list list
val notes : t -> string list

val render : t -> string
(** Title, header, separator, aligned rows, notes. *)

val print : t -> unit
(** [render] to stdout. *)

val write_csv : t -> path:string -> unit

(** Cell formatting helpers. *)

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_ratio : float -> float -> string
(** ["a/b"] as a fixed-point ratio; ["-"] when the denominator is 0. *)
