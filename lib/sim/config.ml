(* See config.mli. *)

type collision = Silent | Detectable
type transport = Ptp | Channel of collision

type t = {
  p : int;
  t : int;
  seed : int;
  record_trace : bool;
  transport : transport;
}

let make ?(seed = 0) ?(record_trace = false) ?(transport = Ptp) ~p ~t () =
  if p <= 0 then invalid_arg "Config.make: p must be positive";
  if t <= 0 then invalid_arg "Config.make: t must be positive";
  { p; t; seed; record_trace; transport }


let transport_to_string = function
  | Ptp -> "ptp"
  | Channel Silent -> "channel"
  | Channel Detectable -> "channel-detect"

let transport_of_string = function
  | "ptp" -> Ok Ptp
  | "channel" | "channel-silent" -> Ok (Channel Silent)
  | "channel-detect" | "channel-detectable" -> Ok (Channel Detectable)
  | s ->
    Error
      (Printf.sprintf "unknown transport %S (ptp|channel|channel-detect)" s)

let pp ppf cfg =
  Format.fprintf ppf "p=%d t=%d seed=%d" cfg.p cfg.t cfg.seed
