(** Discrete-event simulation engine.

    Time is an [int] count of simulated microseconds.  Events are thunks
    scheduled at absolute instants; the engine fires them in
    (time, insertion-order) order, which makes runs fully deterministic.

    The engine executes everything on the caller's (single) OS thread:
    "concurrency" in the simulated cluster is interleaving of events, and
    real CPU parallelism is modelled explicitly by {!Worker_pool}. *)

type time = int
(** Simulated microseconds since the start of the run. *)

type t

val create : unit -> t
(** A fresh engine with the clock at 0 and an empty agenda. *)

val now : t -> time
(** Current simulated time. *)

val schedule : t -> at:time -> (unit -> unit) -> unit
(** [schedule t ~at f] runs [f] when the clock reaches [at].  Scheduling in
    the past raises [Invalid_argument]. *)

val after : t -> time -> (unit -> unit) -> unit
(** [after t d f] is [schedule t ~at:(now t + d) f]. [d] must be >= 0. *)

val run : ?until:time -> t -> unit
(** Fire events until the agenda is empty, or until the clock would pass
    [until] (events at exactly [until] still fire). *)

val events_fired : t -> int
(** Total number of events executed since [create]. *)
