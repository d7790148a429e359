(** A follower's copy of one partition's shipped log, as a pure state
    machine updated in place: the primary's term, the contiguous prefix
    logged so far and the entries that arrived ahead of a gap.  Ship
    messages may be lost, duplicated and reordered; the logged prefix is
    always a contiguous prefix of the current term's shipped entries. *)

type 'e t

type verdict =
  | Stale  (** another term's entry: drop it, do not ack *)
  | Next
      (** extends the prefix: log it, then the entries {!take} returns,
          then ack *)
  | Held  (** a duplicate, or kept until the gap fills: ack *)

val create : term:int -> 'e t
val term : 'e t -> int

val applied : 'e t -> int
(** Length of the logged prefix. *)

val new_term : 'e t -> term:int -> bool
(** A higher term: a new primary took over, and the log restarts empty
    ([true]: the caller discards its log). *)

val ship : 'e t -> term:int -> seq:int -> 'e -> verdict
(** Allocates nothing for an in-order entry. *)

val take : 'e t -> 'e list
(** The held entries that now extend the prefix, in order. *)

val crash : 'e t -> durable:int -> unit
(** The unflushed tail and the held entries are lost; the prefix is the
    [durable] one. *)
