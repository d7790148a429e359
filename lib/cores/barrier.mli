(** The epoch manager's grant/revoke/ack barrier (§III-B) as a pure state
    machine: frontends are node ids, [now] is simulated time and [local]
    the EM's clock reading, both passed in.  {!Epoch.Manager} performs
    the returned actions in order.

    Per epoch [e]: grant [(e, \[lo, hi\])]; at local time [hi] revoke it;
    once every frontend has acked, [e] is closed and [e + 1] granted (the
    grant doubles as the close announcement), with a window just above
    [hi], or from the local now when the switch overran it.  While the
    switch is pending the revoke is re-sent every 5 ms to the frontends
    that have not acked, so a lost Revoke or Revoke_ack cannot wedge
    it. *)

type t

type action =
  | Grant of { epoch : int; lo : int; hi : int; next_duration : int }
      (** to every frontend *)
  | Revoke of { epoch : int; dsts : int list; retry : bool }
      (** to every frontend, or on a [retry] to those that have not
          acked, ascending *)
  | Wake_after of { epoch : int; delay : int }
      (** call {!wake} after [delay] *)
  | Closed of { epoch : int; switch_us : int }
      (** every frontend acked; [switch_us] since the revoke *)
  | Stale_ack  (** an ack for an epoch not being switched *)

val create : fes:int list -> duration_us:int -> t
val current_epoch : t -> int
val epochs_closed : t -> int
val start : t -> local:int -> lead_us:int -> action list

val wake : t -> epoch:int -> now:int -> action list
(** A {!Wake_after} timer: revoke the open epoch at its window's end, or
    re-send the revoke while its switch is pending ([\[\]] after). *)

val ack : t -> src:int -> epoch:int -> now:int -> local:int -> action list
