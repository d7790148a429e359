(** The frontend's completion tracking of one read-write transaction on
    the coordinated lane, as a pure state machine (no simulator, network
    or observability): the frontend feeds it install acks and Batch_done
    notifications and acts on the decisions it returns.  The property
    test drives it with random interleavings, duplicates and early
    Batch_dones.

    Install targets and Batch_done sources are partitions, not
    addresses: after a failover the promoted replica answers from a
    different address, and one server may hold batches of several
    partitions of the same transaction.  Install acks arrive once per
    partition (the first reply of a retried call wins); Batch_dones may
    repeat, and may arrive before the last install ack. *)

type t = private {
  ts : Clocksync.Timestamp.t;
  epoch : int;
  issued_at : int;
  reply : Txn.result -> unit;
      (** the frontend's, kept here so one record per transaction holds
          everything *)
  expected_dones : int;  (** one Batch_done per participant partition *)
  mutable awaiting_installs : int;
  mutable install_failed : bool;
  mutable acked_ok : int list;
      (** partitions whose install ack was ok, newest first *)
  mutable install_done_at : int;
      (** when the write-only phase finished ([issued_at] until then) *)
  mutable done_srcs : int list;
      (** partitions whose Batch_done arrived — a set, so duplicated
          messages cannot double-count *)
  mutable any_aborted : bool;
  mutable max_retrieved : int;
      (** latest processor pick-up time reported by any Batch_done
          ([issued_at] until one reports later) *)
}

val create :
  ts:Clocksync.Timestamp.t ->
  epoch:int ->
  issued_at:int ->
  reply:(Txn.result -> unit) ->
  partitions:int ->
  t
(** A transaction installing on [partitions] partitions (0 for an empty
    write set, whose write phase is done at once, at [issued_at]). *)

type install_step =
  | Installing  (** some partition has not answered yet *)
  | Installed
      (** the last ack arrived (at [now], recorded as [install_done_at])
          and every install was ok: the write-only phase is over, and
          the frontend asks for the {!verdict} *)
  | Install_rejected
      (** the last ack arrived and some install was rejected: the
          second-round abort rolls back [acked_ok]; the transaction
          never commits *)

val install_ack : t -> partition:int -> ok:bool -> now:int -> install_step

val batch_done :
  t -> partition:int -> aborted:bool -> max_retrieved_at:int -> bool
(** A partition's Batch_done: [false] for a duplicate, which changes
    nothing; [true] when it is new, after which the frontend asks for
    the {!verdict}. *)

type verdict =
  | Open
  | Committed  (** installs all ok, every Batch_done in, none aborted *)
  | Aborted
      (** installs all ok, every Batch_done in, some functor aborted
          (the compute-stage abort) *)

val verdict : t -> verdict
