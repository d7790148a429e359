(** The one deployment of the two baselines, Calvin and 2PL/2PC: [n]
    servers, one partition each, on one RPC plane, with no replication
    (fault tolerance disabled, as in the paper's comparison).

    {!Make} builds the cluster around a {!SERVER} module and puts it
    behind {!Kernel.Intf.ENGINE}.  Transactions execute from their
    [static_form] facet, lowered to a {!Ctxn.t} that carries the ops as
    they are; {!apply} interprets them against a functor registry.
    Workload handlers registered through [register] land in that
    registry and are evaluated inside {!apply}.

    Network latency (uniform 80 + U(0, 40) us) and the partitioner (the
    decimal run after a key's first [':'], else an FNV-1a hash) are
    constants; the deployment reads {!Kernel.Params.t} and the seed (42
    unless given). *)

type ('req, 'resp) node = {
  sim : Sim.Engine.t;
  rpc : ('req, 'resp) Net.Rpc.t;
  node_id : int;  (** the server's address and the partition it hosts *)
  partition_of : string -> int;
  funreg : Functor_cc.Registry.t;
      (** the cluster's functor registry, which {!apply} reads *)
  metrics : Sim.Metrics.t;
  params : Kernel.Params.t;
  seed : int;
}
(** What a server is built from. *)

val apply :
  Functor_cc.Registry.t ->
  Ctxn.t ->
  reads:(string * Functor_cc.Value.t option) list ->
  (string * Functor_cc.Value.t) list
(** [apply funreg txn ~reads] evaluates each of [txn]'s ops against
    [reads], the pre-state of the full read set, and returns the full
    write map.  Handlers see [txn.version]; arithmetic ops treat an
    absent key as 0, as ALOHA's built-ins do.  It cannot abort (the
    open-source Calvin restriction the paper compares against): an
    aborting or unregistered handler writes nothing.  Raises
    [Invalid_argument] on a [Delete] op or outcome and on a
    [Dep_delete], which have no static form. *)

module type SERVER = sig
  type t
  type req
  type resp

  val name : string
  (** The engine's CLI / report identifier. *)

  val create : (req, resp) node -> t
  val start : t -> unit
  val submit : t -> Ctxn.t -> k:(unit -> unit) -> unit
  (** [k] fires once the transaction is complete (or given up). *)

  val load_initial : t -> key:string -> Functor_cc.Value.t -> unit
  val read_local : t -> string -> Functor_cc.Value.t option

  val gauges : (string * (t -> int)) list
  (** [(gauge key, per-server value)]: with obs on, each is published
      as the sum over the servers at every sample, beside
      ["gauge.net_drops"]. *)

  val committed_key : string
  val latency_key : string
  val abort_keys : (string * string) list
  val counter_keys : (string * string) list
  val stage_keys : (string * string) list
end

module type S = sig
  include Kernel.Intf.ENGINE

  val set_trace :
    cluster -> (src:Net.Address.t -> dst:Net.Address.t -> unit) -> unit
  (** Observe every send on the cluster's RPC plane (chaos tracing). *)

  val drop_stats : cluster -> Net.Network.drop_stats
end

module Make (Server : SERVER) : S
