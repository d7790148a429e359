(** The per-run observability handle: one lifecycle {!Trace}, one
    {!Gauges} sampler, and the fault-correlation clock, bundled so a
    single value can be threaded through [Kernel.Params] into every layer
    of a cluster.

    Fault correlation: the cluster wires the network's fault hook to
    {!note_fault}; every subsequent lifecycle event within 2 ms of the
    last injected fault carries [tag = 1], so a latency spike in the trace
    can be attributed to the chaos edict that caused it. *)

type t

val create :
  ?sample:int -> ?gauge_interval_us:int -> ?ledger:Ledger.t -> unit -> t
(** [sample] keeps 1-in-N transactions (default 1).  [ledger] (default
    absent) attaches an epoch-granularity {!Ledger} — when absent the
    ledger emit sites cost one option test. *)

val trace : t -> Trace.t
val gauges : t -> Gauges.t

val ledger : t -> Ledger.t option
(** The attached epoch ledger, if any — engines cache this at creation. *)

val emit :
  t -> txn:int -> stage:Trace.stage -> node:int -> ts:int -> ?arg:int ->
  unit -> unit
(** Sampled emit: drops unsampled transactions and stamps the
    fault-correlation tag. *)

val note_fault : t -> now:int -> node:int -> kind:[ `Drop | `Delay ] -> unit
(** Record an injected network fault: emits a [Fault_drop]/[Fault_delay]
    marker event and opens the correlation window. *)

val fault_drops : t -> int
val fault_delays : t -> int

val arm : t -> sim:Sim.Engine.t -> for_us:int -> unit
(** Start the gauge sampler for the next [for_us] of simulated time. *)

val measure_reset : t -> unit
(** Discard warm-up data (trace events, gauge points, fault counters) at
    the start of the measured window; wiring stays. *)
