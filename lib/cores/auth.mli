(** A frontend's epoch authorization (§II, §III-B, §III-C) as a pure
    state machine, updated in place: the grant it holds, in-flight
    transactions per epoch, orphan revokes (whose Grant never arrived)
    and the highest epoch whose revoke it acked.  {!Epoch.Participant}
    feeds it control messages and transaction starts and finishes, and
    performs the returned actions in order.

    The rules:
    - A transaction may start only while the local clock is within the
      granted validity period (§II).
    - A revoke is acked as soon as its epoch has nothing in flight.  The
      same holds for an orphan revoke, so a lost Grant cannot wedge the
      switch.
    - A repeated revoke is acked again once acked (the EM re-sends when
      our ack was lost), as is a stale one for an epoch left behind.
    - A grant at or below the latest grant, at or below the highest
      acked revoke, or for an orphan-revoked epoch is a reordered
      straggler and is ignored: once the revoke is acked the EM believes
      nothing is in flight there.  The grant of [e] doubles as "every
      epoch below [e] closed": it delivers, in ascending order, each
      close not yet delivered, so a lost grant loses no close.
    - §III-C: after an acked revoke, with the straggler optimisation, new
      transactions may start without authorization in the next epoch,
      with timestamps at most the previous finish plus the next epoch's
      duration — unless a revoke for that next epoch was already acked
      (orphan path). *)

type window = {
  epoch : int;  (** the epoch this transaction will belong to *)
  lo : int;  (** lowest admissible timestamp time-field *)
  hi : int;  (** highest admissible timestamp time-field *)
  authorized : bool;  (** false = started under the straggler rule *)
}

type t

type action =
  | Ack of int  (** send [Revoke_ack] for the epoch *)
  | Closed of int  (** the epoch is globally closed *)
  | Opened of { epoch : int; lo : int; hi : int }
  | Changed  (** after every accepted grant and every revoke *)

val create : straggler_opt:bool -> t

val grant :
  t -> epoch:int -> lo:int -> hi:int -> next_duration:int -> action list
(** [\[\]] for a grant at or below the latest granted epoch or the
    highest acked revoke. *)

val revoke : t -> epoch:int -> action list

val txn_started : t -> epoch:int -> unit

val txn_finished : t -> epoch:int -> int list
(** The epochs whose revoke the last in-flight transaction of an epoch
    lets it ack; [\[\]] otherwise, without allocating. *)

val window : t -> now:int -> window option
(** Where a transaction starting at local time [now] would live: [None]
    when it must be held (no grant yet, or authorization expired or
    revoked and the straggler rule does not apply). *)

val in_flight : t -> epoch:int -> int
val granted : t -> int
