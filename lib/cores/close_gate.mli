(** The epoch close gate as a pure state machine: an epoch may close at
    a server (advancing its value watermark) only once every replication
    group the server leads is durable through the epoch's close marker.
    [Alohadb.Server] feeds it the epochs the participant closes and the
    groups' durability, and delivers the closes it returns. *)

type close = private {
  epoch : int;
  entered : int;  (** when the gate took the close *)
  groups : int list;  (** the groups it waited on *)
  mutable waiting : int list;
}

type t

val create : unit -> t

val enter : t -> epoch:int -> groups:int list -> now:int -> close list
(** Hold [epoch]'s close until each of [groups] is durable through it
    ([\[\]]: at once) and every earlier epoch's close is delivered.
    Epochs enter in ascending order. *)

val durable : t -> group:int -> epoch:int -> close list
(** [group] is durable through [epoch], and so through every earlier
    epoch. *)

val crash : t -> close list
(** Every pending close: the EM's grant made each a cluster-global fact,
    and the durability notices that would release them died with the
    process. *)

val pending : t -> int list
(** Epochs held, ascending. *)
