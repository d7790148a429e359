(** Assembly of a 2PL/2PC deployment. *)

type options = {
  n_servers : int;
  latency : Net.Latency.t;
  partitioner : [ `Hash | `Prefix ];
  seed : int;
  faults : Net.Faults.t option;
      (** fault oracle for the RPC plane; 2PC cannot survive message
          loss, so pair it with [Net.Faults.Reliable] transport.
          [None] = fault-free. *)
  obs : Obs.Ctl.t option;
      (** observability handle: lifecycle tracing on every server plus
          lock-wait / prepared gauges; [None] = untraced *)
}

val default_options : options

type t

val create : ?registry:Calvin.Ctxn.registry -> options -> t

val set_trace : t -> (src:Net.Address.t -> dst:Net.Address.t -> unit) -> unit
(** Observe every send (chaos trace hashing). *)

val drop_stats : t -> Net.Network.drop_stats
val sim : t -> Sim.Engine.t
val metrics : t -> Sim.Metrics.t
val n_servers : t -> int
val server : t -> int -> Server.t
val partition_of : t -> string -> int
val load : t -> key:string -> Functor_cc.Value.t -> unit
val submit : ?k:(unit -> unit) -> t -> fe:int -> Calvin.Ctxn.t -> unit
val run_for : t -> int -> unit
