(* See adversary.mli. *)

type oracle = {
  time : unit -> int;
  p : int;
  t : int;
  d : int;
  undone_count : unit -> int;
  undone : unit -> int list;
  task_done : int -> bool;
  would_perform : int -> int option;
  plan : pid:int -> horizon:int -> int list;
  alive : int -> bool;
  halted : int -> bool;
  note : string -> unit;
  rng : Rng.t;
}

type fault_action = Deliver | Drop | Duplicate of int | Reorder of int
type faults = oracle -> src:int -> dst:int -> fault_action

type latency = Variable | Fixed of int | Maximal

type delay_rule =
  | Constant of int
  | Bound
  | Per_copy of (oracle -> src:int -> dst:int -> int)

type channel_policy = {
  chan_name : string;
  order : (oracle -> int array -> int array option) option;
  hold : (oracle -> src:int -> int) option;
}

type t = {
  name : string;
  schedule : oracle -> bool array;
  delay : oracle -> src:int -> dst:int -> int;
  latency : latency;
  crash : oracle -> int list;
  faults : faults option;
  restart : (oracle -> int list) option;
  channel : channel_policy option;
}

let no_crash (_ : oracle) = []
let all_active o = Array.make o.p true

let closure = function
  | Constant k -> fun _ ~src:_ ~dst:_ -> k
  | Bound -> fun o ~src:_ ~dst:_ -> o.d
  | Per_copy f -> f

let make ~name ?(schedule = all_active) ?(delay = Constant 1)
    ?(crash = no_crash) ?faults ?restart ?channel () =
  let latency =
    match delay with
    | Constant k -> Fixed k
    | Bound -> Maximal
    | Per_copy _ -> Variable
  in
  { name; schedule; delay = closure delay; latency; crash; faults; restart;
    channel }

let per_copy adv =
  let rule =
    match adv.latency with
    | Fixed k -> Constant k
    | Maximal -> Bound
    | Variable -> Per_copy adv.delay
  in
  { adv with delay = closure rule; latency = Variable }

let fair = make ~name:"fair" ()

let uniform_delay =
  make ~name:"uniform-delay"
    ~delay:(Per_copy (fun o ~src:_ ~dst:_ -> 1 + Rng.int o.rng (Int.max 1 o.d)))
    ()
