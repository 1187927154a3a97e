(** Tasks and jobs.

    Tasks are the unit of the Do-All problem: similar (constant-time) and
    idempotent. When [p < t] the paper's algorithms group the [t] tasks
    into [p] jobs of at most [ceil(t/p)] tasks each and schedule jobs
    instead (Sections 5.1.3 and 6); performing a job costs one step per
    member task. A {!partition} fixes the grouping once so every
    processor agrees on it. *)

type partition = private {
  t : int;  (** tasks, ids [0..t-1] *)
  n : int;  (** jobs, ids [0..n-1]; [n = min(p, t)] *)
  base : int;  (** [t / n] *)
  extra : int;  (** [t mod n]: jobs [0..extra-1] hold [base + 1] tasks *)
}
(** O(1) words: job [j] owns the contiguous tasks
    [[j * base + min j extra, (j + 1) * base + min (j + 1) extra)], so
    every query below is closed-form arithmetic. *)

val make : p:int -> t:int -> partition
(** Balanced contiguous grouping into [min(p, t)] jobs whose sizes differ
    by at most one (so every size is [<= ceil(t/p)]). *)

val job_lo : partition -> int -> int
(** First task of the job. *)

val job_hi : partition -> int -> int
(** One past the last task of the job: job [j] owns
    [job_lo j .. job_hi j - 1], and [job_hi j = job_lo (j + 1)]. *)

val tasks_of_job : partition -> int -> int list

val job_done : partition -> Doall_sim.Bitset.t -> int -> bool
(** Whether every member task of the job is set in the knowledge set. *)

val next_member : partition -> Doall_sim.Bitset.t -> int -> int option
(** First member task of the job not in the knowledge set. *)

val first_unknown : partition -> Doall_sim.Bitset.t -> int -> from:int -> int
(** [first_unknown part know j ~from] is the first member task of job
    [j] at index [>= from] not in [know], or the job's end bound when
    every remaining member is known. Knowledge sets are monotone (bits
    are never cleared), so a caller that scans a job repeatedly can
    carry the returned index as a cursor and make the total scan cost
    O(job size) instead of O(job size) {e per call} — the difference
    between [next_member] and this under a long run is the whole
    known-prefix rescan on every step. *)
