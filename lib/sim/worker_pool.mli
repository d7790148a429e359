(** Model of a node's CPU: a pool of [workers] identical cores serving a
    FIFO queue of jobs, each with an explicit service time.

    Everything a simulated server "computes" — RPC handling, functor
    evaluation, lock-manager work — is submitted here with a cost in
    simulated microseconds, so CPU contention emerges naturally: when all
    workers are busy, jobs queue, and measured latency grows.

    A pool with [workers = 1] models a serial bottleneck (e.g. Calvin's
    single-threaded lock manager). *)

type t

val create : Engine.t -> workers:int -> t
(** [create engine ~workers] with [workers >= 1]. *)

val submit : t -> cost:int -> (unit -> unit) -> unit
(** [submit t ~cost done_] enqueues a job taking [cost] (>= 0) simulated
    microseconds of one worker's time, then calls [done_] at completion. *)

val submit_run : t -> cost:int -> count:int -> (int -> unit) -> unit
(** [submit_run t ~cost ~count f] enqueues [count] jobs of [cost] each as
    one queue entry; the completion of the [i]-th job ([0 <= i < count])
    calls [f i].  Jobs start and complete exactly as they would after
    [count] calls to {!submit}, in index order, but the run allocates one
    entry instead of a job and a queue cell per job. *)

val submit_silent : t -> cost:int -> count:int -> unit
(** [submit_silent t ~cost ~count] is {!submit_run} with no callback.  On
    an idle pool (no busy worker, empty queue) it takes [count] jobs'
    worker time without an event per job: lane [w] of the pool's
    [workers] runs ⌈(count − w) / workers⌉ jobs back to back, and one
    completion event fires per lane, when its last job would complete.
    {!queue_length}, {!busy_time} and {!jobs_completed} read mid-run are
    computed from that lane schedule, as a reader firing first at its
    instant sees them after single submits; only the order of same-instant
    events at a lane's end can differ.  On a busy pool it is a
    {!submit_run} of no-op jobs. *)

val workers : t -> int

val queue_length : t -> int
(** Jobs waiting (excluding the ones in service); a run counts each of
    its jobs not yet started. *)

val busy_workers : t -> int

val busy_time : t -> int
(** Cumulative busy worker-microseconds, for utilisation accounting. *)

val jobs_completed : t -> int
