(** The built-in experiment catalog: e1–e21 plus the Fig. 1 trace, one
    registered {!Exp.t} per paper anchor (see EXPERIMENTS.md for the
    paper-vs-measured record).

    Every body prints byte-identical tables at any [--jobs] — the golden
    snapshot tests in [test/test_exp.ml] pin this at several levels. *)

val install : unit -> unit
(** Register every built-in experiment, in the order a bare [doall exp run] runs
    them (e1, e2, e3, fig1, e4 … e21), and the quorum algorithms they
    read by name ({!Doall_quorum.Register.install}). Idempotent; call it
    from every entry point before touching the {!Exp} registry. *)
