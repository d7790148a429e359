(** Replication-group bookkeeping for one partition, as seen by its
    current primary.

    Pure state machine (no network, no WAL, no simulator): the primary's
    WAL entry sequence is the replicated log; followers send cumulative
    durable acks; the gating floor is the minimum ack over live
    followers (or the local log length when none is live — degraded
    single-copy mode).  Epoch barriers are positions in the sequence:
    an epoch is durable once the floor covers its barrier.  Being pure
    makes the ack-gating rule directly model-checkable — the
    replication property test drives this module against a reference. *)

type t

val create : term:int -> primary:int -> members:int list -> len:int -> t
(** [members] includes the primary; [len] is the initial log length
    (non-zero when a promoted follower adopts its replayed WAL). *)

val term : t -> int
val len : t -> int

val append : t -> int
(** Record one appended log entry; returns its 1-based sequence. *)

val ack : t -> member:int -> seq:int -> unit
(** Cumulative follower ack: entries [1..seq] durable at [member].
    Monotone (stale acks ignored); acks from the primary itself are
    ignored; raises if [seq] exceeds the log length (a follower can
    never be ahead of its primary). *)

val member_down : t -> id:int -> unit
(** Exclude a follower from the floor (failure detector verdict).  May
    fire pending gates: the floor over live followers can only rise. *)

val member_rejoin : t -> id:int -> unit
(** Re-admit a follower with an empty log (ack reset to 0); the caller
    re-ships from sequence 1. *)

val close_epoch : t -> epoch:int -> unit
(** Register the epoch's barrier at the current log position. *)

val when_seq_acked : t -> seq:int -> (unit -> unit) -> unit
(** Run the callback once the floor reaches [seq] (immediately if it
    already has).  Gates install/abort acks in sync mode. *)

val when_epoch_durable : t -> epoch:int -> (unit -> unit) -> unit
(** Run the callback once the epoch's barrier is covered by the floor.
    Gates epoch close (watermark advance) in sync mode. *)

val durable_epoch : t -> int
val replica_lag : t -> int
(** Entries appended but not yet acked by every live follower. *)

val live_followers : t -> int list
val lagging_followers : t -> seq:int -> (int * int) list
(** Live followers whose cumulative ack is below [seq], with their acks
    (the primary's retransmission worklist). *)

val crash : t -> durable_len:int -> unit
(** Primary crash while retaining the primary role (no live successor):
    truncate the log to the durable WAL prefix, drop barriers beyond it,
    reset acks and discard pending gates.  [durable_epoch] survives. *)

val acked : t -> member:int -> int
