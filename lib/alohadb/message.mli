(** Data-plane wire messages between frontends and backends. *)

type fspec = {
  ftype : Functor_cc.Ftype.t;
  farg : Functor_cc.Funct.farg;
}
(** Serialised description of one functor to install.  Final f-types carry
    their payload in [farg.args]. *)

type install = {
  txn_id : int;
  epoch : int;
  ts : int;  (** the transaction timestamp = version, as an int *)
  lo : int;  (** validity window (local-clock µs) the version must be in *)
  hi : int;
  writes : (Mvstore.Key.t * fspec) list;
  preconditions : Mvstore.Key.t list;
      (** keys that must already exist on this partition *)
  fast : bool;
      (** coordination-free fast path: the writes are all-commutative
          built-ins with no preconditions, so the backend installs them
          as lazily-merged pending deltas (no epoch batch, no
          [Batch_done]) and the frontend commits on install acks alone *)
}

type req =
  | Install of install
  | Abort_txn of { ts : int; keys : Mvstore.Key.t list }
      (** second-round rollback of the write-only phase *)
  | Get_req of { key : Mvstore.Key.t; version : int }

type resp =
  | Install_ack of { ok : bool }
  | Abort_ack
  | Get_resp of Functor_cc.Value.t option

type oneway =
  | Push of {
      key : Mvstore.Key.t;
      version : int;
      src_key : Mvstore.Key.t;
      value : Functor_cc.Value.t option;
    }
  | Dep_write of {
      key : Mvstore.Key.t;
      version : int;
      final : Functor_cc.Funct.final;
    }
  | Batch_done of {
      txn_id : int;
      partition : int;
          (** which partition's batch finished: after a failover one
              server can hold batches of several partitions for the same
              transaction, so [txn_id] alone no longer names a batch *)
      functors : int;  (** how many of the txn's functors this BE held *)
      max_retrieved_at : int;  (** latest processor pick-up time, for the
                                   Figure-10 stage breakdown *)
      aborted : bool;  (** some functor of the txn finalised as ABORTED *)
    }
  | Batch_done_ack of { txn_id : int; partition : int }
      (** coordinator's receipt for a [Batch_done]; stops the backend's
          resend loop (the notification is one-way, so under a lossy
          network it is repeated until acknowledged) *)
  | Plan_sub of {
      key : Mvstore.Key.t;
      version : int;
      dst_key : Mvstore.Key.t;
      dst_version : int;
    }
      (** the planner's push (sent only with [push_opt]): the sender's
          plan has a functor at ([dst_key], [dst_version]) reading
          [key]@[version]; evaluate the producer and push the value back
          (a {!Plan_push}).  Lossy
          networks may drop either leg — the consumer's gather still
          races its own remote read, so the subscription is an
          optimisation, never a liveness requirement *)
  | Plan_push of {
      key : Mvstore.Key.t;
      version : int;
      src_key : Mvstore.Key.t;
      value : Functor_cc.Value.t option;
    }
      (** reply to a {!Plan_sub}: lands in the same per-record push buffer
          as the §IV-B recipient-set [Push] *)
  | Wal_ship of { partition : int; term : int; seq : int; entry : log_entry }
      (** replication: the primary of [partition] ships the [seq]-th
          entry (1-based) of its durable WAL under routing generation
          [term].  A follower seeing a higher term discards its copy of
          the partition's log and rebuilds from seq 1; lower terms are
          stale primaries and are ignored *)
  | Ship_ack of { partition : int; term : int; seq : int }
      (** follower's cumulative receipt: every shipped entry up to and
          including [seq] is durable in its local WAL *)

and log_entry =
  | Log_install of {
      key : Mvstore.Key.t;
      version : int;
      spec : fspec;
      txn_id : int;
      coordinator : int;
      epoch : int;
      fast : bool;
    }
  | Log_abort of { key : Mvstore.Key.t; version : int }
  | Log_epoch_closed of int
      (** a WAL record ({!Wal.entry} re-exports this type), defined here
          because the replication plane ships records as they are: a
          follower logs the very record its primary logged *)

type wire =
  | Req of req
  | One of oneway

type rpc = (wire, resp) Net.Rpc.t

val functor_of_fspec :
  fspec -> txn_id:int -> coordinator:int -> Functor_cc.Funct.t
(** Materialise the runtime record a BE stores for this spec. *)

val fspec_value : Functor_cc.Value.t -> fspec
val fspec_of_op :
  key:Mvstore.Key.t -> recipients:Mvstore.Key.t list ->
  ?pushed_reads:Mvstore.Key.t list -> Txn.op -> fspec
(** Transform one transaction write into its functor spec (§IV-B
    "Transforming a transaction to functors").  [Call]/[Det] read sets
    and dependents arrive as client-facing strings and are interned
    here, at the wire boundary.  A built-in (ADD/SUBTR/MAX/MIN) with no
    recipients, no pushed reads and an operand in [0, 64) gets a spec
    shared by every such functor: specs are immutable. *)

val fspec_dep_marker : det_key:Mvstore.Key.t -> fspec
