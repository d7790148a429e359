(** Node addresses in the simulated cluster.

    A node is identified by a small non-negative integer.  Server nodes,
    the epoch manager, and client nodes all share the address space. *)

type t = private int

val of_int : int -> t
(** Raises [Invalid_argument] on negative ids. *)

val to_int : t -> int
val equal : t -> t -> bool

module Set : Set.S with type elt = t
