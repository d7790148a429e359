(** Server configuration and CPU cost model.

    The record holds what an experiment or the engine adapter sets; the
    cost model and the other fixed parameters are constants below.  All
    costs are in simulated microseconds of one worker's time, calibrated
    so that an 8-core server sustains on the order of 10^5 NewOrder
    transactions per second — the paper's ballpark on m4.4xlarge
    instances.

    Durability and hardening are not settings: {!Cluster.create} derives
    them.  A cluster with a fault oracle is hardened: every loss-prone
    exchange (frontend RPCs, Batch_done notifications, a primary's
    re-ship of unacked WAL entries) repeats every {!retry_us} until
    answered, and installs, aborts and epoch closes wait until the log
    entries they cover are flushed and acked by every live follower.  A
    hardened or replicated (k > 1) cluster is durable: every partition
    writes a WAL (§III-A), which is also the replication transport.  A
    fault-free k = 1 cluster is neither, as in the paper's evaluation. *)

type runtime_mode =
  | Sim
      (** everything on the simulation domain (the default): compute
          costs are charged in simulated time only *)
  | Real
      (** additionally evaluate each epoch's planned functors, one task
          per key run, on a shared pool of OCaml 5 domains, for
          wall-clock throughput *)

val runtime_mode_of_string : string -> runtime_mode option

type t = {
  runtime_mode : runtime_mode;  (** execution backend (sim | real) *)
  domains : int;
      (** worker domains in the real runtime's shared pool (>= 1) *)
  straggler_opt : bool;  (** §III-C unauthorized starts *)
  push_opt : bool;  (** §IV-B recipient-set pushes *)
  replicas : int;
      (** copies of each partition, including the primary, clamped to
          the cluster size; 1 (the default) makes every partition a
          replication group of one *)
  fastpath : bool;
      (** coordination-free commit lane for all-commutative transactions
          (empty precondition set, every write an ADD/SUBTR/MAX/MIN):
          the frontend acknowledges as soon as every partition has
          durably installed the functors, without waiting for epoch
          close or functor computation, and the backends fold the
          pending deltas into their chains lazily.  Off by default; when
          off, behaviour is bit-for-bit identical to previous releases *)
}

val default : t

(** Fixed parameters: the worker pool width ([cores], the paper's 8-core
    VMs), the modelled group-commit flush latency, and the retransmission
    period of a hardened server (10 ms).  Costs: the frontend's
    transform and install fan-out per transaction ([cost_coord_us]); per
    install message plus per functor installed; one storage read; one
    handler execution; the planner's dispatch of one buffered item; and
    generic one-way message handling. *)

val cores : int
val wal_flush_us : int
val retry_us : int
val cost_coord_us : int
val cost_install_base_us : int
val cost_install_us : int
val cost_get_us : int
val cost_compute_us : int
val cost_dispatch_us : int
val cost_msg_us : int
