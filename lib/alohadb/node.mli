(** The context every role of one ALOHA-DB server shares: its address,
    clock, partition routing, configuration, worker pool, epoch
    participant, metrics and observability handles, and whether its
    backend is down.  The roles build on it in one direction —
    {!Replica}, then {!Backend}, then {!Frontend}, all assembled by
    {!Server} — and none reads another role's state except through that
    role's interface. *)

(** Tables keyed by transaction id.  Ids are timestamps, whose low bits
    are a node id and a sequence number and whose varying bits sit high
    (see {!Clocksync.Timestamp}), so the hash folds the high bits down
    before the table masks off the low ones. *)
module Txn_tbl : Hashtbl.S with type key = int

(** Tables keyed by (transaction id, partition). *)
module Txn_part_tbl : Hashtbl.S with type key = int * int

type t = {
  sim : Sim.Engine.t;
  data : Message.rpc;  (** the data plane *)
  address : Net.Address.t;
  node_id : int;
  clock : Clocksync.Node_clock.t;
  partition_of : Mvstore.Key.t -> int;
  addr_of_partition : int -> Net.Address.t;
      (** the partition's current primary *)
  my_partition : int;  (** the home partition *)
  config : Config.t;
  durable : bool;  (** every led partition writes a WAL *)
  hardened : bool;
      (** retries and replica-gated acks (derived: see {!Config}) *)
  metrics : Sim.Metrics.t;
  obs : Obs.Ctl.t option;
  ledger : Obs.Ledger.t option;
      (** cached from [obs]: the epoch-ledger emit sites cost one option
          test when no ledger is attached *)
  pool : Sim.Worker_pool.t;  (** every CPU cost of the server *)
  real_pool : Runtime.Pool.t option;
      (** worker-domain pool for [--runtime real] (shared cluster-wide);
          [None] under the default sim runtime *)
  part : Epoch.Participant.t;
  mutable be_down : bool;
      (** backend role crashed: storage/compute requests are dropped
          until the restart; the frontend role and the epoch participant
          stay up *)
}

val now : t -> int

val emit :
  t -> txn:int -> stage:Obs.Trace.stage -> ?ts:int -> ?arg:int -> unit ->
  unit
(** Lifecycle trace event; one option test when tracing is off.  [ts]
    defaults to now: Submit passes the original submission time (the
    transaction's id does not exist until its timestamp is acquired, so
    the event is emitted retroactively). *)

val lnote : t -> (Obs.Ledger.t -> unit) -> unit
(** Epoch-ledger note; one option test when no ledger is attached. *)

val call_with_retry :
  t -> partition:int -> Message.wire -> (Message.resp -> unit) -> unit
(** Data-plane call to [partition]'s primary.  With [hardened] it
    is repeated every {!Config.retry_us} until the first reply, which
    wins (the backend answers duplicates idempotently): a lost request
    or reply costs latency instead of wedging the transaction, which
    keeps the epoch's in-flight barrier — and so atomic commitment —
    live under message loss.  Every attempt re-resolves the partition's
    primary, so after a failover the retries chase the promoted
    replica. *)

val remote_get :
  t -> key:Mvstore.Key.t -> version:int ->
  (Functor_cc.Value.t option -> unit) -> unit
(** Read [key] at [version] (latest version not above it) from its
    partition's primary: the one Get_req exchange, shared by the
    frontend's historical reads and the compute engine's remote reads. *)
