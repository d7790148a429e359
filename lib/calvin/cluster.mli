(** Assembly of a simulated Calvin deployment: [n] servers, each hosting a
    sequencer, a scheduler with its single-threaded lock manager, executor
    workers and one partition; no replication (fault tolerance disabled,
    as in the paper's comparison). *)

type options = {
  n_servers : int;
  epoch_us : int;  (** sequencer batch length *)
  latency : Net.Latency.t;
  partitioner : [ `Hash | `Prefix ];
  seed : int;
  faults : Net.Faults.t option;
      (** fault oracle for the shared RPC plane; Calvin's sequencer
          barrier tolerates no loss, so pair it with
          [Net.Faults.Reliable] transport.  [None] = fault-free. *)
  obs : Obs.Ctl.t option;
      (** observability handle: lifecycle tracing on every server plus
          lock-queue / in-flight gauges; [None] = untraced *)
}

val default_options : options

type t

val create : ?registry:Ctxn.registry -> options -> t
(** [registry] defaults to [Ctxn.with_builtins ()]. *)

val start : t -> unit
(** Start every sequencer's epoch timer. *)

val set_trace : t -> (src:Net.Address.t -> dst:Net.Address.t -> unit) -> unit
(** Observe every send (chaos trace hashing). *)

val drop_stats : t -> Net.Network.drop_stats

val sim : t -> Sim.Engine.t
val metrics : t -> Sim.Metrics.t
val n_servers : t -> int
val server : t -> int -> Server.t
val partition_of : t -> string -> int

val load : t -> key:string -> Functor_cc.Value.t -> unit

val submit : ?k:(unit -> unit) -> t -> fe:int -> Ctxn.t -> unit

val run_for : t -> int -> unit
