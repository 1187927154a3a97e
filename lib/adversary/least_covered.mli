(** The target set [J_s] of the stage adversaries ({!Lb_deterministic},
    {!Lb_randomized}): the undone tasks that the fewest processors'
    stage plans cover, and a membership test for the set chosen.

    One value holds the working arrays of one adversary instance: a
    coverage count and a membership flag per task, sized on first use
    and reset per stage, so a stage costs O(t + total plan length) with
    no sort and no table. *)

type t

val create : unit -> t
(** Empty working arrays; the first stage sizes them to the task count. *)

val least_covered :
  t -> tasks:int -> undone:int list -> plans:int list array -> int -> int list
(** [least_covered s ~tasks ~undone ~plans k] counts, for each task of
    [undone] (distinct ids in [0, tasks)), its occurrences in all of
    [plans] (a plan listing a task twice counts it twice; plan tasks
    outside [undone] are ignored), and returns the [min k |undone|]
    least-covered ones, ordered by (coverage, task id) ascending: ties go
    to the lower id. The result becomes the member set ({!mem}). *)

val set_members : t -> tasks:int -> int list -> unit
(** Makes exactly the given tasks members, for a [J_s] chosen another
    way. *)

val mem : t -> int -> bool
(** Is the task in the last selection? Valid for ids in [0, tasks). *)
