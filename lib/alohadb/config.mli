(** Server configuration and CPU cost model.

    All costs are in simulated microseconds of one worker's time.  The
    defaults are calibrated so that an 8-core server sustains on the order
    of 10^5 NewOrder transactions per second — the paper's ballpark on
    m4.4xlarge instances — but every experiment can override them; they
    are inputs of the model, not hidden constants. *)

type runtime_mode =
  | Sim
      (** everything on the simulation domain (the default): compute
          costs are charged in simulated time only *)
  | Real
      (** additionally evaluate each epoch's planned functors, one task
          per key run, on a shared pool of OCaml 5 domains, for
          wall-clock throughput *)

val runtime_mode_of_string : string -> runtime_mode option
val runtime_mode_to_string : runtime_mode -> string

type t = {
  cores : int;  (** worker pool width (the paper's 8-core VMs) *)
  runtime_mode : runtime_mode;  (** execution backend (sim | real) *)
  domains : int;
      (** worker domains in the real runtime's shared pool (>= 1) *)
  straggler_opt : bool;  (** §III-C unauthorized starts *)
  push_opt : bool;  (** §IV-B recipient-set pushes *)
  durability : bool;
      (** write-ahead logging + checkpoint support (§III-A); disabled by
          default, matching the paper's evaluation setup *)
  wal_flush_us : int;  (** modelled group-commit flush latency *)
  retry_us : int;
      (** retransmission period of every loss-prone exchange: frontend
          RPCs, Batch_done notifications and a primary's re-ship of
          unacked WAL entries.  0 (the default) disables retries, fine on
          a fault-free network; chaos runs enable it so a lost message
          costs latency, not a wedged transaction (receivers answer
          duplicates idempotently) *)
  sync_acks : bool;
      (** answer installs/aborts only once the log entries they cover are
          flushed and acked by every live follower (whose epoch closes
          gate the same way), so a crash or the loss of one replica can
          only lose writes the frontend never saw acknowledged.  Needs
          [durability]; off by default *)
  replicas : int;
      (** copies of each partition, including the primary; 1 (the
          default) is a replication group of one: the home partition's
          WAL with no followers.  k > 1 forces [durability] on (WAL
          shipping is the replication transport) and clamps to the
          cluster size *)
  fastpath : bool;
      (** coordination-free commit lane for all-commutative transactions
          (empty precondition set, every write an ADD/SUBTR/MAX/MIN):
          the frontend acknowledges as soon as every partition has
          durably installed the functors, without waiting for epoch
          close or functor computation, and the backends fold the
          pending deltas into their chains lazily.  Off by default; when
          off, behaviour is bit-for-bit identical to previous releases *)
  cost_coord_us : int;
      (** FE: transform a transaction into functors and fan out installs *)
  cost_install_base_us : int;  (** BE: fixed cost per install message *)
  cost_install_us : int;  (** BE: marginal cost per functor installed *)
  cost_get_us : int;  (** BE: one storage read *)
  cost_compute_us : int;  (** BE: one handler execution *)
  cost_dispatch_us : int;  (** planner: dispatch one buffered item *)
  cost_msg_us : int;  (** generic one-way message handling *)
}

val default : t
