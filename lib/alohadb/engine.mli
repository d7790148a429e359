(** ALOHA-DB behind the {!Kernel.Intf.ENGINE} signature.

    The cluster type is transparent ([= Cluster.t]) so experiments that
    need ALOHA-specific construction (custom {!Config.t}, clock skew,
    epoch participant hooks) can build the cluster natively and still run
    it through the generic [Kernel.Run] loop.

    Transactions execute from their [functor_form] facet: [Det] ops keep
    the §IV-E dynamic dependent-write scheme. *)

include Kernel.Intf.ENGINE with type cluster = Cluster.t
(** [create] builds the cluster with prefix partitioning, the default
    config, and the epoch duration from the params (when given) and
    [replicas] from [params.replicas].  [params.faults] goes to the
    cluster, which is then hardened (10 ms retransmission and acks gated
    on every live copy; see {!Config}), so the protocol stays live and
    atomic under loss, crashes and failover. *)

val set_trace :
  cluster -> (src:Net.Address.t -> dst:Net.Address.t -> unit) -> unit

val drop_stats : cluster -> Net.Network.drop_stats
