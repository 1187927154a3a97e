open Doall_sim
open Doall_perms

let det_list_seed = 0xD0A11

(* One entry per domain, keyed on [(n, p)]: every pid of a run reads
   its row of the same list, and a grid cell on another domain builds
   its own, so no lock is needed. *)
let det_cache : ((int * int) * int array array) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let det_schedules ~n ~p =
  match Domain.DLS.get det_cache with
  | Some (key, psi) when key = (n, p) -> psi
  | Some _ | None ->
    let psi =
      Array.of_list
        (List.map Perm.to_array
           (Gen.seeded_list ~seed:det_list_seed ~n ~count:p))
    in
    Domain.DLS.set det_cache (Some ((n, p), psi));
    psi

(* [Det None]: the default list, [det_schedules]; [Det (Some psi)]: a
   caller's list, as arrays. Rows are shared by every pid and never
   written. *)
type variant = Ran1 | Ran2 | Det of int array array option

let variant_name = function
  | Ran1 -> "paran1"
  | Ran2 -> "paran2"
  | Det _ -> "padet"

let make_variant ?(gossip = `Full) ?(broadcast_every = 1) ?fanout variant :
    Algorithm.packed =
  if broadcast_every < 1 then
    invalid_arg "Algo_pa: broadcast_every must be >= 1";
  (match fanout with
   | Some k when k < 1 -> invalid_arg "Algo_pa: fanout must be >= 1"
   | Some _ | None -> ());
  (module struct
    let name =
      variant_name variant
      ^ (match gossip with `Full -> "" | `Single -> "-single")
      ^ (if broadcast_every = 1 then ""
         else Printf.sprintf "-b%d" broadcast_every)
      ^ match fanout with
        | None -> ""
        | Some k -> Printf.sprintf "-f%d" k

    (* The sender's knowledge at send time (the paper's reading): a
       copy-on-write snapshot, exact under any delivery order. *)
    type msg = Bitset.snapshot

    type state = {
      p : int;
      pid : int;
      part : Task.partition;
      know : Bitset.t;
      order : int array;
        (* Ran1/Det: the job schedule, never written (Det's is a row
           shared by every pid); Ran2: the pool, whose first [pos]
           entries are the not-yet-eliminated candidates. *)
      mutable pos : int;
      rng : Rng.t;
      mutable current : int option; (* job in progress *)
      mutable cur_lo : int;
        (* Scan cursor into the current job: every member below it is
           known done. Knowledge is monotone, so the cursor only ever
           advances — [select] keeps it on the job's first unknown
           member, turning the per-step job scan from O(known prefix)
           into O(new gains) amortized. Meaningful only while [current]
           is [Some _]. *)
      mutable performed_steps : int; (* for broadcast throttling *)
      mutable halted : bool;
    }

    let init (cfg : Config.t) ~pid =
      let part = Task.make ~p:cfg.p ~t:cfg.t in
      let n = part.Task.n in
      let rng = Rng.create ((cfg.seed * 0x10001) + (pid * 7919) + 17) in
      let order, pos =
        match variant with
        | Ran1 -> (Rng.permutation rng n, 0)
        | Ran2 -> (Array.init n (fun i -> i), n)
        | Det psi ->
          let psi =
            match psi with
            | Some psi -> psi
            | None -> det_schedules ~n ~p:cfg.p
          in
          let row = psi.(pid mod Array.length psi) in
          if Array.length row <> n then
            invalid_arg "Algo_pa: schedule size must be min(p, t)";
          (row, 0)
      in
      {
        p = cfg.p;
        pid;
        part;
        know = Bitset.create cfg.t;
        order;
        pos;
        rng;
        current = None;
        cur_lo = 0;
        performed_steps = 0;
        halted = false;
      }

    let copy st =
      {
        st with
        know = Bitset.copy st.know;
        order = Array.copy st.order;
        rng = Rng.copy st.rng;
      }

    let receive st ~src:_ msg = Bitset.union_into ~dst:st.know msg

    (* [receive] never reads [src] and only ORs payload bits into
       [know]: a source-independent monotone union for every variant,
       so one epoch of broadcasts may be pre-folded (algorithm.mli). *)
    let merge_homomorphic = Some Bitset.union_snapshots

    let is_done st = Bitset.is_full st.know
    let done_tasks st = st.know

    let job_end st j = Task.job_hi st.part j

    (* Advance the cursor to job [j]'s first unknown member; false when
       the job is finished. Equivalent to [not (Task.job_done ...)] but
       amortized O(gains) across a job's lifetime instead of a fresh
       known-prefix rescan per step. *)
    let current_pending st j =
      st.cur_lo <- Task.first_unknown st.part st.know j ~from:st.cur_lo;
      st.cur_lo < job_end st j

    (* Select: the next job to work on, or None when everything this
       processor can see is done. Leaves [cur_lo] on the returned job's
       first unknown member. *)
    let select st =
      match st.current with
      | Some j when current_pending st j -> Some j
      | Some _ | None -> (
        st.current <- None;
        let pick j =
          st.cur_lo <-
            Task.first_unknown st.part st.know j
              ~from:(Task.job_lo st.part j);
          Some j
        in
        match variant with
        | Ran1 | Det _ ->
          let n = Array.length st.order in
          while
            st.pos < n && Task.job_done st.part st.know st.order.(st.pos)
          do
            st.pos <- st.pos + 1
          done;
          if st.pos < n then pick st.order.(st.pos) else None
        | Ran2 ->
          (* Uniform among not-known-done jobs: draw from the pool,
             lazily evicting jobs discovered done. *)
          let found = ref None in
          while !found = None && st.pos > 0 do
            let idx = Rng.int st.rng st.pos in
            let j = st.order.(idx) in
            if Task.job_done st.part st.know j then begin
              st.order.(idx) <- st.order.(st.pos - 1);
              st.order.(st.pos - 1) <- j;
              st.pos <- st.pos - 1
            end
            else found := Some j
          done;
          Option.fold ~none:None ~some:pick !found)

    let step st =
      if st.halted then Algorithm.nothing
      else if is_done st then begin
        st.halted <- true;
        Algorithm.result ~halt:true ()
      end
      else
        match select st with
        | None ->
          (* All jobs known done but [is_done] false cannot happen (the
             partition covers every task); defensive no-op. *)
          Algorithm.nothing
        | Some j ->
          if st.cur_lo >= job_end st j then
            Algorithm.nothing (* unreachable: select checked *)
          else begin
            let z = st.cur_lo in
            Bitset.set st.know z;
            st.current <- (if current_pending st j then Some j else None);
            st.performed_steps <- st.performed_steps + 1;
            (* Throttling (extension, cf. the paper's closing open
               problem): broadcast every k-th performing step, plus
               always on local completion so the news spreads. *)
            if
              st.performed_steps mod broadcast_every = 0
              || Bitset.is_full st.know
            then begin
              let payload =
                match gossip with
                | `Full -> Bitset.snapshot st.know
                | `Single ->
                  (* Ablation: announce only the task just performed. *)
                  let b = Bitset.create (Bitset.length st.know) in
                  Bitset.set b z;
                  Bitset.snapshot b
              in
              match fanout with
              | None -> Algorithm.result ~performed:z ~broadcast:payload ()
              | Some k when k >= st.p - 1 ->
                Algorithm.result ~performed:z ~broadcast:payload ()
              | Some k ->
                (* Gossip extension (cf. [12]): k distinct random
                   destinations instead of all p-1. The payload is a
                   read-only snapshot, so all recipients share it. *)
                let dests =
                  Rng.sample_without_replacement st.rng k (st.p - 1)
                in
                let unicasts =
                  Array.to_list
                    (Array.map
                       (fun i ->
                         ((if i >= st.pid then i + 1 else i), payload))
                       dests)
                in
                Algorithm.result ~performed:z ~unicasts ()
            end
            else Algorithm.result ~performed:z ()
          end
  end)

let make_ran1 ?gossip ?broadcast_every ?fanout () =
  make_variant ?gossip ?broadcast_every ?fanout Ran1

let make_ran2 ?gossip ?broadcast_every ?fanout () =
  make_variant ?gossip ?broadcast_every ?fanout Ran2

let make_det ?gossip ?broadcast_every ?fanout ?psi () =
  let psi =
    Option.map
      (fun psi ->
        if psi = [] then invalid_arg "Algo_pa: empty schedule list";
        Array.of_list (List.map Perm.to_array psi))
      psi
  in
  make_variant ?gossip ?broadcast_every ?fanout (Det psi)
