(** Fixed-interval time-series gauges.

    A [Gauges.t] is a periodic sampler driven off {!Sim.Engine}: every
    [interval_us] of simulated time it runs the registered probes (which
    compute instantaneous values and publish them through the
    {!Sim.Metrics} gauge primitive) and then snapshots every gauge of the
    bound metrics into an append-only series of [(sim_time, value)]
    points.

    Sampling is bounded: {!arm} schedules ticks only up to a horizon, so a
    simulation driven without an [~until] horizon cannot be kept alive
    forever by the sampler.  Probes must be read-only with respect to the
    simulation (they run inside engine events; mutating anything but
    metrics would break the tracing-is-behaviour-neutral contract). *)

type t

val create : ?interval_us:int -> unit -> t
(** [interval_us] defaults to 5000 (one sample per 5 simulated ms). *)

val bind_metrics : t -> Sim.Metrics.t -> unit
(** Snapshot every gauge of this metrics registry at each tick.  Bound
    once per run by the cluster that owns the metrics. *)

val add_probe : t -> (unit -> unit) -> unit
(** Register a probe run at each tick before the snapshot; probes publish
    values with [Sim.Metrics.set_gauge]. *)

val arm : t -> sim:Sim.Engine.t -> for_us:int -> unit
(** Schedule periodic sampling from now until [now + for_us]. *)

val series : t -> (string * (int * float) list) list
(** Every recorded series, sorted by name; points oldest first. *)

val clear : t -> unit
(** Drop recorded points (probes and bindings are kept).  Used to discard
    the warm-up window. *)
