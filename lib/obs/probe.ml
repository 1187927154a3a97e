(* See probe.mli.

   Each instrument caches the probe's immutable [enabled] flag at
   registration, so a record is `if on then <one or two int writes>`,
   with no indirection through the registry. The registry itself is a
   name-keyed hashtable per instrument class, used only at registration
   and snapshot time (never in the hot path). *)

type counter = { c_on : bool; mutable c_v : int }
type gauge = { g_on : bool; mutable g_last : int; mutable g_max : int }

type histogram = {
  h_on : bool;
  h_buckets : int array; (* 64 log2 buckets; count = their sum *)
  mutable h_sum : int;
  mutable h_max : int;
}

type vector = { v_on : bool; v_values : int array }

type series = {
  s_on : bool;
  mutable s_times : int array;
  mutable s_values : int array;
  mutable s_len : int;
}

type t = {
  enabled : bool;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  vectors : (string, vector) Hashtbl.t;
  series : (string, series) Hashtbl.t;
}

let create ?(enabled = true) () =
  {
    enabled;
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
    vectors = Hashtbl.create 8;
    series = Hashtbl.create 8;
  }

let enabled t = t.enabled

let register tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some i -> i
  | None ->
    let i = make () in
    Hashtbl.add tbl name i;
    i

(* -- counters -- *)

let counter t name =
  register t.counters name (fun () -> { c_on = t.enabled; c_v = 0 })

let[@inline] incr c = if c.c_on then c.c_v <- c.c_v + 1
let[@inline] add c n = if c.c_on then c.c_v <- c.c_v + n
let[@inline] counter_value c = c.c_v

(* -- gauges -- *)

let gauge t name =
  register t.gauges name (fun () ->
      { g_on = t.enabled; g_last = 0; g_max = 0 })

let set g v =
  if g.g_on then begin
    g.g_last <- v;
    if v > g.g_max then g.g_max <- v
  end

(* -- histograms -- *)

let histogram t name =
  register t.histograms name (fun () ->
      { h_on = t.enabled; h_buckets = Array.make 64 0; h_sum = 0; h_max = 0 })

let bucket_of_slow v =
  if v <= 0 then 0
  else begin
    (* index of the highest set bit, plus one: v in [2^(i-1), 2^i - 1] *)
    let i = ref 0 and x = ref v in
    while !x > 0 do
      Stdlib.incr i;
      x := !x lsr 1
    done;
    !i
  end

(* Hot-path bucket lookup: [observe] runs once per simulated message, so
   the common small values (delivery deltas, fan-outs) resolve with one
   table load instead of a bit-scan loop. *)
let bucket_table = Array.init 1024 bucket_of_slow

let[@inline] bucket_of v =
  if v >= 0 && v < 1024 then Array.unsafe_get bucket_table v
  else bucket_of_slow v

let bucket_bounds i =
  if i <= 0 then (0, 0) else (1 lsl (i - 1), (1 lsl i) - 1)

let[@inline] observe h v =
  if h.h_on then begin
    let i = bucket_of v in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1;
    h.h_sum <- h.h_sum + v;
    if v > h.h_max then h.h_max <- v
  end

let observe_n h v n =
  if h.h_on && n > 0 then begin
    let i = bucket_of v in
    h.h_buckets.(i) <- h.h_buckets.(i) + n;
    h.h_sum <- h.h_sum + (v * n);
    if v > h.h_max then h.h_max <- v
  end

(* -- vectors -- *)

let vector t name ~len =
  let v =
    register t.vectors name (fun () ->
        { v_on = t.enabled; v_values = Array.make len 0 })
  in
  if Array.length v.v_values <> len then
    invalid_arg
      (Printf.sprintf "Probe.vector: %S re-registered with len %d <> %d" name
         len (Array.length v.v_values));
  v

let[@inline] vincr v i = if v.v_on then v.v_values.(i) <- v.v_values.(i) + 1

(* -- series -- *)

let series t name =
  register t.series name (fun () ->
      { s_on = t.enabled; s_times = [||]; s_values = [||]; s_len = 0 })

let sample s ~time v =
  if s.s_on then begin
    let cap = Array.length s.s_times in
    if s.s_len = cap then begin
      let cap' = max 64 (2 * cap) in
      let grow a = Array.init cap' (fun i -> if i < cap then a.(i) else 0) in
      s.s_times <- grow s.s_times;
      s.s_values <- grow s.s_values
    end;
    s.s_times.(s.s_len) <- time;
    s.s_values.(s.s_len) <- v;
    s.s_len <- s.s_len + 1
  end

(* -- snapshots -- *)

type histogram_snapshot = {
  count : int;
  sum : int;
  max : int;
  buckets : (int * int) list;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * (int * int)) list;
  histograms : (string * histogram_snapshot) list;
  vectors : (string * int array) list;
  series : (string * (int * int) array) list;
}

let sorted tbl f =
  Hashtbl.fold (fun name i acc -> (name, f i) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let percentile (h : histogram_snapshot) q =
  if h.count = 0 then (0, 0)
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
    let rec walk seen = function
      | [] -> bucket_bounds 0 (* unreachable: ranks <= count *)
      | (i, n) :: rest ->
          if seen + n >= rank then bucket_bounds i else walk (seen + n) rest
    in
    let lo, hi = walk 0 h.buckets in
    (lo, min hi h.max)
  end

let snapshot (pr : t) =
  {
    counters = sorted pr.counters (fun c -> c.c_v);
    gauges = sorted pr.gauges (fun g -> (g.g_last, g.g_max));
    histograms =
      sorted pr.histograms (fun h ->
          let buckets = ref [] and count = ref 0 in
          for i = 63 downto 0 do
            if h.h_buckets.(i) > 0 then begin
              buckets := (i, h.h_buckets.(i)) :: !buckets;
              count := !count + h.h_buckets.(i)
            end
          done;
          { count = !count; sum = h.h_sum; max = h.h_max;
            buckets = !buckets });
    vectors = sorted pr.vectors (fun v -> Array.copy v.v_values);
    series =
      sorted pr.series (fun s ->
          Array.init s.s_len (fun i -> (s.s_times.(i), s.s_values.(i))));
  }
