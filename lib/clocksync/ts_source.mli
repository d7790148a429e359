(** Per-frontend timestamp source.

    Issues strictly increasing, globally unique {!Timestamp.t}s derived
    from the node's local clock, clamped into a caller-supplied window —
    the epoch validity period for authorised transactions, or the
    straggler-optimisation bound for transactions started without
    authorization (§III-C). *)

type t

val create : Node_clock.t -> node:int -> t

val next : t -> lo:int -> hi:int -> Timestamp.t option
(** [next t ~lo ~hi] issues a timestamp whose time field lies within
    [lo, hi] (microseconds of local-clock time), strictly greater than any
    timestamp issued before.  [None] when the window is already exhausted
    (local clock beyond [hi] with the sequence space at [lo..hi] used up) —
    the caller must then wait for the next epoch. *)
