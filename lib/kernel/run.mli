(** The generic client loop: install an arrival process on a started
    cluster, run a warm-up window, reset the metrics, run a measurement
    window, and extract a {!Result.t} through the engine's declared
    metric keys.

    This is the single place that owns warmup/measure policy; every
    harness entry point (CLI, figures, benches, tests) goes through it
    regardless of engine. *)

val run :
  (module Intf.ENGINE with type cluster = 'c) ->
  cluster:'c ->
  gen:(fe:int -> Txn.t) ->
  arrival:Arrivals.t ->
  ?on_reply:(fe:int -> Txn.reply -> unit) ->
  ?obs:Obs.Ctl.t ->
  ?warmup_us:int ->
  ?measure_us:int ->
  ?seed:int ->
  unit ->
  Result.t
(** The cluster must already be created, loaded and started.
    [on_reply] observes every completion (chaos invariant checking:
    counting replies proves no submission was lost).  [obs], when given,
    arms its gauge sampler over the whole run and discards trace/gauge
    data accumulated during warm-up at the measurement boundary — pass
    the same handle the cluster was built with. *)
