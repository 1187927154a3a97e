let default_max_time ~p ~t ~d =
  (* A single processor can solve Do-All alone in O(q * t) steps for every
     algorithm in this library (full solo traversal); with the engine
     forcing at least one step per time unit, p * that is an absolute
     bound. Add slack for delays and tiny instances. *)
  10_000 + (48 * t * p) + (64 * d)

(* The engine's probe catalogue (docs/OBSERVABILITY.md). Instruments are
   registered once at [create]; every record site below is guarded by a
   single branch on [obs_on], so a disabled probe costs one predictable
   conditional per site and cannot perturb metrics or RNG streams. *)
type instruments = {
  obs_on : bool;
  i_fresh : Probe.counter; (* engine.fresh_executions *)
  i_redundant : Probe.counter; (* engine.redundant_executions *)
  i_sends : Probe.counter; (* net.sends *)
  i_deliveries : Probe.counter; (* net.deliveries *)
  i_latency : Probe.histogram; (* net.delivery_latency *)
  i_fanout : Probe.histogram; (* net.fanout *)
  i_inflight : Probe.gauge; (* net.in_flight *)
  i_stream_pending : Probe.gauge; (* net.stream_pending *)
  i_stream_digest : Probe.gauge; (* net.stream_digest_bytes *)
  i_drops : Probe.counter; (* net.drops *)
  i_dups : Probe.counter; (* net.dups *)
  i_collisions : Probe.counter; (* net.collisions *)
  i_busy : Probe.counter; (* net.channel_busy *)
  i_delayed : Probe.vector; (* proc.delayed_steps *)
  i_idle : Probe.vector; (* proc.idle_steps *)
  s_fresh : Probe.series; (* engine.fresh_executions per tick *)
  s_redundant : Probe.series; (* engine.redundant_executions per tick *)
  s_inflight : Probe.series; (* net.in_flight per tick *)
}

(* The engine's span catalogue (docs/OBSERVABILITY.md): wall-clock
   phase sections recorded behind the same cached-enabled-flag trick as
   the probes. Spans only read the clock, so metrics and RNG streams
   are bit-identical with profiling on, off, or absent. *)
type phases = {
  ph_on : bool;
  ph_deliver : Span.span; (* message delivery into a stepping pid *)
  ph_algo : Span.span; (* A.step: the algorithm's local transition *)
  ph_adv : Span.span; (* adversary decisions: restart/crash/schedule *)
  ph_bcast : Span.span; (* outbound traffic + step-result bookkeeping *)
  ph_oracle : Span.span; (* invariant-oracle audits (0 unless ~check) *)
}

let phases spans =
  {
    ph_on = Span.enabled spans;
    ph_deliver = Span.span spans "deliver";
    ph_algo = Span.span spans "algo_step";
    ph_adv = Span.span spans "adversary";
    ph_bcast = Span.span spans "bcast_maint";
    ph_oracle = Span.span spans "oracle";
  }

let instruments probe ~p =
  {
    obs_on = Probe.enabled probe;
    i_fresh = Probe.counter probe "engine.fresh_executions";
    i_redundant = Probe.counter probe "engine.redundant_executions";
    i_sends = Probe.counter probe "net.sends";
    i_deliveries = Probe.counter probe "net.deliveries";
    i_latency = Probe.histogram probe "net.delivery_latency";
    i_fanout = Probe.histogram probe "net.fanout";
    i_inflight = Probe.gauge probe "net.in_flight";
    i_stream_pending = Probe.gauge probe "net.stream_pending";
    i_stream_digest = Probe.gauge probe "net.stream_digest_bytes";
    i_drops = Probe.counter probe "net.drops";
    i_dups = Probe.counter probe "net.dups";
    i_collisions = Probe.counter probe "net.collisions";
    i_busy = Probe.counter probe "net.channel_busy";
    i_delayed = Probe.vector probe "proc.delayed_steps" ~len:p;
    i_idle = Probe.vector probe "proc.idle_steps" ~len:p;
    s_fresh = Probe.series probe "engine.fresh_executions";
    s_redundant = Probe.series probe "engine.redundant_executions";
    s_inflight = Probe.series probe "net.in_flight";
  }

(* The run's message fabric: the paper's point-to-point network (§2.1),
   or the multiple-access shared channel beyond the model (docs/MODEL.md).
   Every medium-specific decision in the engine is one [match] on this. *)
type 'msg fabric = Ptp of 'msg Network.t | Shared of 'msg Channel.t

module Make (A : Algorithm.S) = struct
  type t = {
    cfg : Config.t;
    d : int;
    adv : Adversary.t;
    stream : bool;
        (* constant-latency fast path: a Fixed/Maximal latency profile, no
           fault injection, no crash recovery. Broadcasts become one
           entry of the network's broadcast log instead of p-1 sends and
           merge-homomorphic payloads fold, epoch by epoch, into one
           cumulative digest (the chain), which a receiver gets once for
           every epoch it has not passed. Bit-identical to the general
           path by construction (pinned by the golden grid and the
           stream equivalence tests). Recovery stays excluded because of
           the chain: it folds in every broadcast it covers, the
           receiver's own included, which is harmless only while the
           receiver's knowledge already contains them, and a restart
           resets that knowledge (test_stream pins a flaky cell where
           the two paths differ). *)
    stream_delta : int; (* the profile's constant, clamped into [1..d] *)
    delay : Adversary.oracle -> src:int -> dst:int -> int;
        (* the run's per-copy delay, read by every path: the profile's
           constant under [Fixed]/[Maximal], else the adversary's
           [delay] closure *)
    mutable dsts : int array;
    mutable dues : int array;
        (* the [copies] copies of the payload being sent, destination
           and due instant, reused by every per-destination send and
           grown when replicas overflow them *)
    mutable copies : int;
    states : A.state array;
    fabric : A.msg fabric;
        (* on a shared channel each step's outbound traffic becomes one
           frame, the slot is resolved at the end of every tick, and the
           stream fast path is off (its FIFO constant-latency promise
           cannot survive contention) *)
    global_done : Bitset.t;
    alive : bool array;
    halted : bool array;
    (* The eligible (alive and not halted) pids as a sorted intrusive
       doubly-linked list over [0..p], with index [p] as the sentinel.
       Eligibility is monotone decreasing, so unlinking is the only
       mutation and ascending pid order is preserved for free. This is
       what lets a tick cost O(eligible) instead of O(p). *)
    next_eligible : int array;
    prev_eligible : int array;
    done_seen : bool array; (* pids counted in [done_alive] *)
    per_proc_work : int array;
    ins : instruments;
    ph : phases;
    trace : Trace.t;
    check : Oracle.t option; (* the invariant oracle, when [~check:true] *)
    mutable oracle : Adversary.oracle option;
    mutable time : int;
    mutable work : int;
    mutable executions : int;
    mutable finished : bool;
    mutable sigma : int;
    mutable live : int;
    mutable halted_count : int;
    mutable done_alive : int; (* live pids observed with [A.is_done] *)
    mutable lat_v : int;
    mutable lat_n : int;
        (* net.delivery_latency's run-length registers: a run of [lat_n]
           equal deltas [lat_v] not yet flushed to the histogram *)
    mutable receiver : int; (* the pid whose step is receiving *)
    mutable deliver : int -> A.msg -> unit;
        (* the receive callback, built once: it hands a delivery to
           [receiver]'s state *)
  }

  (* Lookahead used by the omniscient adversary: clone [pid]'s state and
     step the clone in isolation (no deliveries), collecting the distinct
     tasks it performs. The clone stops at a halt or at its first waiting
     step: it receives nothing, so by the [waiting] contract every later
     step would perform nothing, and the plan is the one a run to the cap
     returns. [step_cap] bounds bookkeeping-only steps so a clone that
     spins without declaring it (e.g. on a finished tree) cannot loop. *)
  let isolated_plan states ~pid ~horizon ~step_cap =
    let clone = A.copy states.(pid) in
    let performed = ref [] in
    let count = ref 0 in
    let seen = Hashtbl.create 16 in
    let steps = ref 0 in
    (try
       while !steps < step_cap && !count < horizon do
         incr steps;
         let r = A.step clone in
         (match r.Algorithm.performed with
          | Some task when not (Hashtbl.mem seen task) ->
            Hashtbl.add seen task ();
            performed := task :: !performed;
            incr count
          | Some _ -> incr count
          | None -> ());
         if r.Algorithm.halt || r.Algorithm.waiting then raise Exit
       done
     with Exit -> ());
    List.rev !performed

  (* [isolated_plan ~horizon:1] without the bookkeeping: the first task
     the clone performs, if it performs one before it halts, waits or
     reaches [step_cap]. *)
  let first_task states ~pid ~step_cap =
    let clone = A.copy states.(pid) in
    let rec go steps =
      if steps >= step_cap then None
      else
        let r = A.step clone in
        match r.Algorithm.performed with
        | Some _ as task -> task
        | None ->
          if r.Algorithm.halt || r.Algorithm.waiting then None
          else go (steps + 1)
    in
    go 0

  let create ?probe ?spans ?(check = false) cfg ~d ~adversary =
    if d < 0 then invalid_arg "Engine.create: d must be non-negative";
    (* a message is due at most d after its send; a larger d cannot be
       queued (see Msg_ring's packing) *)
    if d > Msg_ring.max_due then
      invalid_arg "Engine.create: d past Msg_ring.max_due (2^31 - 1)";
    let d = Int.max 1 d in
    let p = cfg.Config.p in
    let probe =
      match probe with Some pr -> pr | None -> Probe.create ~enabled:false ()
    in
    let spans =
      match spans with Some sp -> sp | None -> Span.create ~enabled:false ()
    in
    let shared =
      match cfg.Config.transport with
      | Config.Channel _ -> true
      | Config.Ptp -> false
    in
    (* message-level fault injection (drop/duplicate/reorder) is defined
       per point-to-point copy; a shared medium has no per-copy channel
       to corrupt, so the combination is rejected rather than silently
       ignored *)
    if shared && (match adversary.Adversary.faults with Some _ -> true | None -> false)
    then
      invalid_arg
        "Engine.create: fault injection requires the point-to-point \
         transport";
    let constant =
      match adversary.Adversary.latency with
      | Adversary.Fixed k -> Some (Int.max 1 (Int.min d k))
      | Adversary.Maximal -> Some d
      | Adversary.Variable -> None
    in
    let delay =
      match constant with
      | Some k -> fun _ ~src:_ ~dst:_ -> k
      | None -> adversary.Adversary.delay
    in
    let stream_delta =
      let reliable =
        (match adversary.Adversary.faults with None -> true | Some _ -> false)
        && match adversary.Adversary.restart with
           | None -> true
           | Some _ -> false
      in
      match constant with Some k when reliable -> k | _ -> -1
    in
    (* the stream fast path is a point-to-point construct: a broadcast
       log entry assumes every copy of a multicast is individually due at
       a constant offset, which a contended slotted medium cannot honour *)
    let stream = (not shared) && stream_delta >= 0 in
    let eng =
      {
        cfg;
        d;
        adv = adversary;
        stream;
        stream_delta;
        delay;
        dsts = Array.make p 0;
        dues = Array.make p 0;
        copies = 0;
        states = Array.init p (fun pid -> A.init cfg ~pid);
        fabric =
          (match cfg.Config.transport with
           | Config.Ptp ->
             (* the digest witness only applies on the stream fast path:
                elsewhere broadcasts fan out as per-destination sends and
                the broadcast log never sees an entry *)
             Ptp
               (Network.create
                  ?digest:(if stream then A.merge_homomorphic else None)
                  ~horizon:d ~p ())
           | Config.Channel collision ->
             Shared (Channel.create ~p ~collision ()));
        global_done = Bitset.create cfg.Config.t;
        alive = Array.make p true;
        halted = Array.make p false;
        next_eligible = Array.init (p + 1) (fun i -> if i = p then 0 else i + 1);
        prev_eligible = Array.init (p + 1) (fun i -> if i = 0 then p else i - 1);
        done_seen = Array.make p false;
        per_proc_work = Array.make p 0;
        ins = instruments probe ~p;
        ph = phases spans;
        trace = Trace.create ();
        check = (if check then Some (Oracle.create ()) else None);
        oracle = None;
        time = 0;
        work = 0;
        executions = 0;
        finished = false;
        sigma = -1;
        live = p;
        halted_count = 0;
        done_alive = 0;
        lat_v = -1;
        lat_n = 0;
        receiver = 0;
        deliver = (fun _ _ -> ());
      }
    in
    eng.deliver <-
      (fun src msg -> A.receive eng.states.(eng.receiver) ~src msg);
    let plan_step_cap = 16 * (cfg.Config.t + 8) in
    eng.oracle <-
      Some
        {
          Adversary.time = (fun () -> eng.time);
          p;
          t = cfg.Config.t;
          d;
          undone_count =
            (fun () -> cfg.Config.t - Bitset.cardinal eng.global_done);
          undone = (fun () -> Bitset.missing eng.global_done);
          task_done = (fun task -> Bitset.mem eng.global_done task);
          would_perform =
            (fun pid -> first_task eng.states ~pid ~step_cap:plan_step_cap);
          plan =
            (fun ~pid ~horizon ->
              isolated_plan eng.states ~pid ~horizon ~step_cap:plan_step_cap);
          alive = (fun pid -> eng.alive.(pid));
          halted = (fun pid -> eng.halted.(pid));
          note =
            (fun text ->
              if cfg.Config.record_trace then
                Trace.add eng.trace (Trace.Note { time = eng.time; text }));
          rng = Rng.create (cfg.Config.seed lxor 0x5adbeef);
        };
    eng

  let oracle eng =
    match eng.oracle with Some o -> o | None -> assert false

  let unlink_eligible eng pid =
    let nxt = eng.next_eligible.(pid) and prv = eng.prev_eligible.(pid) in
    eng.next_eligible.(prv) <- nxt;
    eng.prev_eligible.(nxt) <- prv

  (* Re-insert [pid] keeping the list sorted. Eligibility stopped being
     monotone the day crash-recovery arrived, so insertion needs a
     predecessor: scan downwards for the nearest eligible pid — O(p),
     but only paid on the (rare) restart path, never per tick. *)
  let link_eligible eng pid =
    let p = eng.cfg.Config.p in
    let prv = ref p (* sentinel *) in
    (try
       for j = pid - 1 downto 0 do
         if eng.alive.(j) && not eng.halted.(j) then begin
           prv := j;
           raise Exit
         end
       done
     with Exit -> ());
    let nxt = eng.next_eligible.(!prv) in
    eng.next_eligible.(!prv) <- pid;
    eng.prev_eligible.(pid) <- !prv;
    eng.next_eligible.(pid) <- nxt;
    eng.prev_eligible.(nxt) <- pid

  (* A read-only window for the invariant oracle's per-tick audit; built
     only on checked runs, so the closures cost nothing in the default
     configuration. *)
  let oracle_view eng =
    {
      Oracle.time = eng.time;
      p = eng.cfg.Config.p;
      t = eng.cfg.Config.t;
      global_done = eng.global_done;
      local_done = (fun pid -> A.done_tasks eng.states.(pid));
      halted = (fun pid -> eng.halted.(pid));
      live = eng.live;
      finished = eng.finished;
    }

  (* Crash-recovery (docs/FAULTS.md): a restarted processor comes back
     with {e reset} local state — `A.init` run afresh, all knowledge
     lost — modelling a node that lost volatile memory. Messages queued
     to it while it was down survive (the network is a separate entity)
     and are delivered on its next step. *)
  let rec apply_restarts eng = function
    | [] -> ()
    | pid :: rest ->
      if pid >= 0 && pid < eng.cfg.Config.p && not eng.alive.(pid) then begin
        eng.alive.(pid) <- true;
        eng.live <- eng.live + 1;
        eng.states.(pid) <- A.init eng.cfg ~pid;
        if eng.halted.(pid) then begin
          (* halted-then-crashed: the halt claim died with the state *)
          eng.halted.(pid) <- false;
          eng.halted_count <- eng.halted_count - 1
        end;
        (* the fresh state knows nothing, so it no longer counts as
           informed; step_processor re-detects it incrementally *)
        eng.done_seen.(pid) <- false;
        link_eligible eng pid;
        if eng.cfg.Config.record_trace then
          Trace.add eng.trace (Trace.Restart { time = eng.time; pid })
      end;
      apply_restarts eng rest

  (* Without a restart policy a halt or crash is permanent, so shared
     broadcast storage stops waiting for [pid]. *)
  let deactivate_if_permanent eng pid =
    match eng.adv.Adversary.restart with
    | Some _ -> ()
    | None -> (
      match eng.fabric with
      | Ptp net -> Network.deactivate net ~pid
      | Shared ch -> Channel.deactivate ch ~pid)

  let rec apply_crashes eng = function
    | [] -> ()
    | pid :: rest ->
      if pid >= 0 && pid < eng.cfg.Config.p && eng.alive.(pid) && eng.live > 1
      then begin
        eng.alive.(pid) <- false;
        eng.live <- eng.live - 1;
        if not eng.halted.(pid) then unlink_eligible eng pid;
        (* in-flight messages outlive their sender (§2.1); on the
           shared channel the transmit buffer dies with the volatile
           state *)
        (match eng.fabric with
         | Ptp _ -> ()
         | Shared ch -> Channel.silence ch ~pid);
        deactivate_if_permanent eng pid;
        if eng.done_seen.(pid) then eng.done_alive <- eng.done_alive - 1;
        if eng.cfg.Config.record_trace then
          Trace.add eng.trace (Trace.Crash { time = eng.time; pid })
      end;
      apply_crashes eng rest

  (* Whether one of the step's unicasts is addressed to the sender
     itself (the engine drops those). Plain recursion, so the per-step
     send path builds no closure. *)
  let rec has_self pid = function
    | [] -> false
    | (dst, _) :: rest -> dst = pid || has_self pid rest

  (* Shared channel: the step's whole outbound — broadcast and/or
     unicasts — is one frame queued at [pid]'s station. The delayed
     adversary may hold it back (clamped into [0 .. d-1], so the
     per-round cap never exceeds the run's delay bound) before it first
     contends. No per-copy [delay] consultation and no latency
     histogram: delivery timing is decided by slot contention, not by a
     per-message adversary pick. *)
  let transmit_frame eng ch pid (r : A.msg Algorithm.step_result) =
    let bcast = r.Algorithm.broadcast in
    let unis =
      let l = r.Algorithm.unicasts in
      if has_self pid l then List.filter (fun (dst, _) -> dst <> pid) l else l
    in
    let logical =
      (match bcast with Some _ -> 1 | None -> 0) + List.length unis
    in
    if logical > 0 then begin
      let hold =
        match eng.adv.Adversary.channel with
        | Some { Adversary.hold = Some h; _ } ->
          let o = oracle eng in
          Int.max 0 (Int.min (eng.d - 1) (h o ~src:pid))
        | _ -> 0
      in
      Channel.transmit ch ~src:pid ~release:(eng.time + hold) ?bcast ~unis ();
      if eng.ins.obs_on then begin
        (* net.sends counts logical messages; on the shared medium a
           broadcast is one (see Channel's module doc on M) *)
        Probe.add eng.ins.i_sends logical;
        Probe.observe eng.ins.i_fanout logical
      end
    end;
    if bcast <> None && eng.cfg.Config.record_trace then
      Trace.add eng.trace
        (Trace.Broadcast
           { time = eng.time; src = pid; copies = eng.cfg.Config.p - 1 })

  (* Per-message delivery deltas feed net.delivery_latency, but paying
     a histogram update per send costs ~10% on broadcast-heavy runs.
     Deltas arrive in runs of equal values (constant for max-delay,
     the common case), so batch by run length in the engine's
     [lat_v]/[lat_n] registers: per send, one compare and a register
     increment; one histogram flush per distinct run, and one at the
     end of the step ({!send_ptp}). *)
  let observe_latency eng delta n =
    if eng.ins.obs_on then
      if delta = eng.lat_v then eng.lat_n <- eng.lat_n + n
      else begin
        Probe.observe_n eng.ins.i_latency eng.lat_v eng.lat_n;
        eng.lat_v <- delta;
        eng.lat_n <- n
      end

  (* one more copy in the engine's buffers *)
  let push_copy eng dst due =
    let k = eng.copies in
    if k = Array.length eng.dues then begin
      let grow a =
        let a' = Array.make (2 * k) 0 in
        Array.blit a 0 a' 0 k;
        a'
      in
      eng.dsts <- grow eng.dsts;
      eng.dues <- grow eng.dues
    end;
    Array.unsafe_set eng.dsts k dst;
    Array.unsafe_set eng.dues k due;
    eng.copies <- k + 1

  (* one point-to-point copy from [pid] to [dst], with its adversarial
     delay and fault verdict, into the engine's buffers *)
  let decide eng pid dst =
    let o = oracle eng in
    let raw = eng.delay o ~src:pid ~dst in
    let delta = Int.max 1 (Int.min eng.d raw) in
    match eng.adv.Adversary.faults with
    | None ->
      (* the reliable network of the paper's model: one branch, no
         extra RNG draws — fault-free runs stay bit-identical *)
      observe_latency eng delta 1;
      push_copy eng dst (eng.time + delta)
    | Some f -> (
      match f o ~src:pid ~dst with
      | Adversary.Deliver ->
        observe_latency eng delta 1;
        push_copy eng dst (eng.time + delta)
      | Adversary.Drop ->
        (* the algorithm paid for the send: it counts toward M even
           though nothing is queued; no latency sample (no delivery) *)
        if eng.ins.obs_on then Probe.incr eng.ins.i_drops
      | Adversary.Duplicate n ->
        observe_latency eng delta 1;
        push_copy eng dst (eng.time + delta);
        (* replicas re-draw their latency (a resend travels a fresh
           path) and do not count toward M — the algorithm sent once *)
        for _ = 1 to n do
          let raw' = eng.delay o ~src:pid ~dst in
          let delta' = Int.max 1 (Int.min eng.d raw') in
          push_copy eng dst (eng.time + delta')
        done;
        if eng.ins.obs_on then Probe.add eng.ins.i_dups (Int.max 0 n)
      | Adversary.Reorder j ->
        (* extra latency on top of the adversary's delay, re-clamped
           into [1..d] so the calendar-ring horizon still holds *)
        let delta' = Int.max 1 (Int.min eng.d (delta + Int.max 0 j)) in
        observe_latency eng delta' 1;
        push_copy eng dst (eng.time + delta'))

  (* the buffered copies of [msg] as one network call, [paid] of them
     counted toward M *)
  let flush eng net pid ~paid msg =
    Network.multicast net ~src:pid ~now:eng.time ~dsts:eng.dsts
      ~dues:eng.dues ~n:eng.copies ~paid msg;
    eng.copies <- 0

  (* each unicast to another pid is its own call; returns [fan] plus the
     messages paid for *)
  let rec send_unicasts eng net pid fan = function
    | [] -> fan
    | (dst, msg) :: rest ->
      if dst <> pid then begin
        decide eng pid dst;
        flush eng net pid ~paid:1 msg;
        send_unicasts eng net pid (fan + 1) rest
      end
      else send_unicasts eng net pid fan rest

  (* Point-to-point: every copy gets its own adversarial delay (and
     fault verdict), except on the stream fast path, where a broadcast
     is one broadcast log entry due after the profile's constant. *)
  let send_ptp eng net pid (r : A.msg Algorithm.step_result) =
    let fan =
      match r.Algorithm.broadcast with
      | None -> 0
      | Some msg ->
        let p = eng.cfg.Config.p in
        if eng.stream && p > 1 then begin
          let delta = eng.stream_delta in
          (* one shared record replaces the p-1 copies; the latency
             probe still sees p-1 samples of [delta], batched through
             the same run-length registers *)
          observe_latency eng delta (p - 1);
          Network.broadcast net ~src:pid ~due:(eng.time + delta) msg
        end
        else begin
          (match eng.adv.Adversary.faults with
           | None ->
             (* fault-free: every copy straight into the buffers, without
                [decide]'s per-copy verdict dispatch *)
             let o = oracle eng in
             let delay = eng.delay
             and dsts = eng.dsts
             and dues = eng.dues
             and d = eng.d
             and now = eng.time in
             for dst = 0 to p - 1 do
               if dst <> pid then begin
                 let delta = Int.max 1 (Int.min d (delay o ~src:pid ~dst)) in
                 observe_latency eng delta 1;
                 let k = if dst < pid then dst else dst - 1 in
                 Array.unsafe_set dsts k dst;
                 Array.unsafe_set dues k (now + delta)
               end
             done;
             eng.copies <- p - 1
           | Some _ ->
             for dst = 0 to p - 1 do
               if dst <> pid then decide eng pid dst
             done);
          flush eng net pid ~paid:(p - 1) msg
        end;
        if eng.cfg.Config.record_trace then
          Trace.add eng.trace
            (Trace.Broadcast { time = eng.time; src = pid; copies = p - 1 });
        p - 1
    in
    let fan = send_unicasts eng net pid fan r.Algorithm.unicasts in
    if eng.ins.obs_on then begin
      Probe.observe_n eng.ins.i_latency eng.lat_v eng.lat_n;
      eng.lat_v <- -1;
      eng.lat_n <- 0;
      (* multicast fan-out of this step: the messages paid for, so one
         [add] also maintains net.sends without per-send increments *)
      if fan > 0 then begin
        Probe.add eng.ins.i_sends fan;
        Probe.observe eng.ins.i_fanout fan
      end
    end

  let step_processor eng pid =
    (match eng.check with
     | Some _ ->
       Span.enter eng.ph.ph_oracle;
       Oracle.check_step ~time:eng.time ~pid ~alive:eng.alive.(pid);
       Span.leave eng.ph.ph_oracle
     | None -> ());
    (* Deliver due messages, then take the local step. *)
    let st = eng.states.(pid) in
    (* receive_iter returns the logical delivery count itself (a digest
       callback can stand for several epochs), so probed and unprobed
       runs share one delivery loop *)
    (* The three hot phases run back to back, so each transition is one
       clock read ({!Span.shift}); the whole step costs four reads. *)
    Span.enter eng.ph.ph_deliver;
    eng.receiver <- pid;
    let delivered =
      match eng.fabric with
      | Ptp net -> Network.receive_iter net ~dst:pid ~now:eng.time eng.deliver
      | Shared ch ->
        Channel.receive_iter ch ~dst:pid ~now:eng.time eng.deliver
    in
    if eng.ins.obs_on && delivered > 0 then
      Probe.add eng.ins.i_deliveries delivered;
    Span.shift eng.ph.ph_deliver eng.ph.ph_algo;
    let r = A.step st in
    Span.shift eng.ph.ph_algo eng.ph.ph_bcast;
    eng.work <- eng.work + 1;
    eng.per_proc_work.(pid) <- eng.per_proc_work.(pid) + 1;
    (match r.Algorithm.performed with
     | Some task ->
       let fresh = not (Bitset.mem eng.global_done task) in
       Bitset.set eng.global_done task;
       eng.executions <- eng.executions + 1;
       if eng.ins.obs_on then
         Probe.incr
           (if fresh then eng.ins.i_fresh else eng.ins.i_redundant);
       if eng.cfg.Config.record_trace then
         Trace.add eng.trace
           (Trace.Perform { time = eng.time; pid; task; fresh })
     | None ->
       if eng.ins.obs_on then Probe.vincr eng.ins.i_idle pid;
       if eng.cfg.Config.record_trace then
         Trace.add eng.trace (Trace.Step { time = eng.time; pid }));
    (* ph_bcast has been open since the post-[A.step] shift: it covers
       the step's outbound traffic plus its result bookkeeping. *)
    (match eng.fabric with
     | Ptp net -> send_ptp eng net pid r
     | Shared ch -> transmit_frame eng ch pid r);
    Span.leave eng.ph.ph_bcast;
    if r.Algorithm.halt then begin
      assert (A.is_done st);
      eng.halted.(pid) <- true;
      eng.halted_count <- eng.halted_count + 1;
      unlink_eligible eng pid;
      deactivate_if_permanent eng pid;
      if eng.cfg.Config.record_trace then
        Trace.add eng.trace (Trace.Halt { time = eng.time; pid })
    end;
    (* Track "informed" incrementally: a pid's knowledge only changes
       during its own step (receive + step above), and is monotone, so
       checking here is exhaustive and counts each pid once. *)
    if (not (Array.unsafe_get eng.done_seen pid)) && A.is_done st then begin
      eng.done_seen.(pid) <- true;
      eng.done_alive <- eng.done_alive + 1
    end

  (* some eligible pid from [pid] on (in list order) is [active] *)
  let rec any_active eng active pid =
    pid <> eng.cfg.Config.p
    && (Array.unsafe_get active pid
       || any_active eng active eng.next_eligible.(pid))

  let tick eng =
    let o = oracle eng in
    (* adversary decisions for the tick: restart, crash, and schedule
       calls (restarts before crashes: a pid both restarted and
       re-crashed in the same tick ends the tick down, but its reset is
       visible) *)
    Span.enter eng.ph.ph_adv;
    (match eng.adv.Adversary.restart with
     | None -> ()
     | Some r -> apply_restarts eng (r o));
    apply_crashes eng (eng.adv.Adversary.crash o);
    let p = eng.cfg.Config.p in
    let active = eng.adv.Adversary.schedule o in
    Span.leave eng.ph.ph_adv;
    if Array.length active <> p then
      invalid_arg "Adversary.schedule: wrong array length";
    (* Time units are defined by the fastest processor: force someone to
       step if the adversary tried to delay every eligible processor.
       The eligible list is ascending, so its head is the lowest pid. *)
    let sentinel = p in
    let head = eng.next_eligible.(sentinel) in
    if head <> sentinel && not (any_active eng active head) then
      active.(head) <- true;
    let pid = ref head in
    while !pid <> sentinel do
      (* capture the successor first: a step may halt (unlink) [!pid] *)
      let next = eng.next_eligible.(!pid) in
      if active.(!pid) then step_processor eng !pid
      else begin
        if eng.ins.obs_on then Probe.vincr eng.ins.i_delayed !pid;
        if eng.cfg.Config.record_trace then
          Trace.add eng.trace (Trace.Delayed { time = eng.time; pid = !pid })
      end;
      pid := next
    done;
    (match eng.fabric with
     | Ptp _ -> ()
     | Shared ch ->
       (* resolve this time unit's transmission slot: the ordered
          adversary (if any) permutes the contenders, serializing the
          medium in an order of its choosing; otherwise two or more
          contenders collide *)
       let arbitrate =
         match eng.adv.Adversary.channel with
         | Some { Adversary.order = Some f; _ } ->
           let o = oracle eng in
           Some (fun contenders -> f o contenders)
         | _ -> None
       in
       match Channel.resolve ch ~now:eng.time ?arbitrate () with
       | Channel.Idle -> ()
       | Channel.Delivered -> if eng.ins.obs_on then Probe.incr eng.ins.i_busy
       | Channel.Collided ->
         if eng.ins.obs_on then begin
           Probe.incr eng.ins.i_busy;
           Probe.incr eng.ins.i_collisions
         end);
    if eng.ins.obs_on then begin
      (* per-tick trajectories: cumulative executions and the in-flight
         message backlog (sends minus deliveries so far) *)
      let time = eng.time in
      Probe.sample eng.ins.s_fresh ~time
        (Probe.counter_value eng.ins.i_fresh);
      Probe.sample eng.ins.s_redundant ~time
        (Probe.counter_value eng.ins.i_redundant);
      (* the queue's own size, not sends - deliveries: drops never
         enter the queue and duplicate replicas are not sends, so the
         arithmetic lies under a faulty network; identical values on a
         reliable one *)
      let inflight =
        match eng.fabric with
        | Ptp net ->
          (* broadcast-log occupancy: retained log entries and bytes
             held by the chain digest (0 outside the digest path) *)
          let records, digest_words = Network.stream_stats net in
          Probe.set eng.ins.i_stream_pending records;
          Probe.set eng.ins.i_stream_digest
            (digest_words * (Sys.word_size / 8));
          Network.pending net
        | Shared ch -> Channel.pending ch
      in
      Probe.set eng.ins.i_inflight inflight;
      Probe.sample eng.ins.s_inflight ~time inflight
    end;
    if eng.done_alive > 0 && Bitset.is_full eng.global_done then begin
      eng.finished <- true;
      eng.sigma <- eng.time
    end;
    (match eng.check with
     | Some oc ->
       Span.enter eng.ph.ph_oracle;
       Oracle.check_tick oc (oracle_view eng);
       Span.leave eng.ph.ph_oracle
     | None -> ());
    eng.time <- eng.time + 1

  let run ?max_time eng =
    let cap =
      match max_time with
      | Some m -> m
      | None ->
        default_max_time ~p:eng.cfg.Config.p ~t:eng.cfg.Config.t ~d:eng.d
    in
    (* a send at time [now < cap] is due by [now + d]: stop before a
       due could pass the ring cap *)
    let cap = Int.min cap (Msg_ring.max_due - eng.d) in
    while (not eng.finished) && eng.time < cap do
      tick eng
    done;
    {
      Metrics.p = eng.cfg.Config.p;
      t = eng.cfg.Config.t;
      d = eng.d;
      work = eng.work;
      messages =
        (match eng.fabric with
         | Ptp net -> Network.sent net
         | Shared ch -> Channel.sent ch);
      sigma = (if eng.finished then eng.sigma else eng.time);
      executions = eng.executions;
      completed = eng.finished;
      halted = eng.halted_count;
      crashed = eng.cfg.Config.p - eng.live;
      per_proc_work = Array.copy eng.per_proc_work;
    }

  let state eng pid = eng.states.(pid)
  let trace eng = eng.trace
  let global_done eng = eng.global_done
  let checker eng = eng.check
end

let run_packed (module A : Algorithm.S) cfg ~d ~adversary ?max_time ?probe
    ?spans ?check () =
  let module E = Make (A) in
  let eng = E.create ?probe ?spans ?check cfg ~d ~adversary in
  E.run ?max_time eng

let run_traced (module A : Algorithm.S) cfg ~d ~adversary ?max_time ?probe
    ?spans ?check () =
  let cfg =
    Config.make ~seed:cfg.Config.seed ~record_trace:true
      ~transport:cfg.Config.transport ~p:cfg.Config.p ~t:cfg.Config.t ()
  in
  let module E = Make (A) in
  let eng = E.create ?probe ?spans ?check cfg ~d ~adversary in
  let m = E.run ?max_time eng in
  (m, E.trace eng)
