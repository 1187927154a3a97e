(** Terminal scatter/line plots for sweep results.

    The experiment harness produces (x, y) sweeps (work vs delay bound,
    work vs p, ...); this renders them as a compact ASCII chart so growth
    shapes and crossovers are visible without leaving the terminal.
    Purely cosmetic — the tables remain the ground truth. *)

type series = { label : string; points : (float * float) list }

val render :
  ?width:int ->
  ?height:int ->
  ?logx:bool ->
  ?logy:bool ->
  ?title:string ->
  series list ->
  string
(** [render series] draws all series on one canvas (default 56x16).
    Each series gets a mark ([*], [+], [o], [x], [#], [@], ..., cycling),
    listed in the legend. With [logx]
    or [logy], points with non-positive coordinates on that axis are
    dropped. Returns [""] when no point survives. Axis extremes are
    labelled with the raw (non-log) values. *)

