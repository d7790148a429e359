(* Crash-aware partition routing for replication groups.

   Each partition has an ordered member list (index 0 = initial
   primary), a current primary, and a term — a generation counter
   bumped on every promotion so replicas can reject WAL shipments from
   deposed primaries.  This is control-plane state (what a membership
   service would hold): reads and updates are not subject to simulated
   network faults. *)

type t

val create : partitions:int -> t

(* Register the replication group once; first member is the primary.
   Raises on empty lists or double registration. *)
val register : t -> partition:int -> Address.t list -> unit

(* Current primary for the partition (raises if unregistered). *)
val resolve : t -> partition:int -> Address.t

val term : t -> partition:int -> int
val members : t -> partition:int -> Address.t list

(* Partitions whose group includes the address, ascending. *)
val groups_of : t -> Address.t -> int list

(* First member in registration order that is [live] and not [avoid]. *)
val find_successor :
  t -> partition:int -> live:(Address.t -> bool) -> avoid:Address.t ->
  Address.t option

(* Make [to_] the primary and bump the term; returns the new term.
   Raises if [to_] is not a member. *)
val promote : t -> partition:int -> to_:Address.t -> int
