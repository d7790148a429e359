(** Assembly of a complete simulated ALOHA-DB deployment: [n] combined
    FE/BE servers, one epoch manager, a data-plane and a control-plane
    network ({!Net.Latency.lan}), and {!Net.Partitioner.by_prefix_int}
    partitioning of the keyspace (keys like ["w:3:..."] go to partition
    [3 mod n], what the TPC-C partition-by-warehouse layout needs).

    Addresses: servers occupy node ids [0 .. n-1]; the EM is node [n]
    (sharing a host with a server in the paper — here a separate address
    on the same simulated network, which is equivalent for the protocol).

    There is one deployment shape for every replication degree k: each
    partition is a replication group (of one at k = 1) registered in a
    {!Net.Route.t}, and every server is built with the WAL-ship plane and
    that route.  The cluster is hardened exactly when [faults] is set, and
    durable when hardened or k > 1 (see {!Config}). *)

type options = {
  n_servers : int;
  config : Config.t;
  epoch : Epoch.Manager.config;
  seed : int;
  clock_skew_us : int;
      (** per-server clock offsets are drawn uniformly from
          [-skew, +skew] *)
  faults : Net.Faults.t option;
      (** fault-injection oracle shared by every plane (one physical
          network); [Some] hardens the cluster; [None] = fault-free *)
  obs : Obs.Ctl.t option;
      (** observability handle: wires lifecycle tracing into every
          server, registers cluster-wide gauge probes (compute-queue
          depth, in-flight functors, watermark lag, WAL pending bytes,
          network drops) and connects the network fault hook for
          chaos-correlation tags; [None] = untraced *)
}

val default_options : options

type t

val create :
  ?registry:Functor_cc.Registry.t -> options -> t
(** Build the deployment.  [registry] defaults to
    [Functor_cc.Registry.with_builtins ()] and is shared by all servers
    (stored procedures are deployed cluster-wide). *)

val start : t -> unit
(** Start the epoch manager (grants the first epoch). *)

val shutdown : t -> unit
(** Join the real runtime's worker-domain pool (no-op under the sim
    runtime, and on repeated calls).  The simulated state stays
    readable; only parallel stratum evaluation becomes unavailable. *)

val set_trace : t -> (src:Net.Address.t -> dst:Net.Address.t -> unit) -> unit
(** Observe every send on the data, control and WAL-ship planes (chaos
    trace hashing). *)

val drop_stats : t -> Net.Network.drop_stats
(** Drop counters summed over the data, control and WAL-ship planes. *)

val sim : t -> Sim.Engine.t
val metrics : t -> Sim.Metrics.t
val n_servers : t -> int
val server : t -> int -> Server.t
val registry : t -> Functor_cc.Registry.t
val partition_of : t -> string -> int

val replicas : t -> int
(** Effective replication degree: [min (max 1 config.replicas) n].  With
    [k > 1] each partition's WAL is shipped to the k-1 following nodes
    (group of partition [p] = nodes [p .. p+k-1 mod n]), a failure
    monitor promotes a live follower when a primary's backend crashes
    (after a fixed 3 ms detection delay), and frontends re-route to
    the promoted replica. *)

val primary_server : t -> partition:int -> Server.t
(** The server currently serving [partition]'s storage — its home server
    until a failover, the promoted replica after one.  Committed state
    must be read through this (chaos probes and oracles do). *)

val group_members : t -> partition:int -> int list
(** Node ids of [partition]'s replication group (just [partition] itself
    at k = 1).  A probe of this partition is unreliable while
    {e any} member is crashed: its primary may be a promoted replica
    still replaying, or about to become one. *)

val load : t -> key:string -> Functor_cc.Value.t -> unit
(** Preload a row on its owning partition (version 0). *)

val submit :
  t -> fe:int -> Txn.request -> (Txn.result -> unit) -> unit
(** Submit a client request to the given frontend. *)

val run_for : t -> int -> unit
(** Advance the simulation by the given number of microseconds. *)
