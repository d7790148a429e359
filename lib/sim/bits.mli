(** Small bit-twiddling helpers shared by the simulation kernel. *)

val count_leading_zeros : int -> int
(** Leading zeros in the 63-bit representation of a non-negative int.
    [count_leading_zeros 1 = 62]; [count_leading_zeros 0 = 63]. *)

val mix : int -> int
(** Integer hash for tables that mask off the low bits: spreads ids whose
    varying bits sit high or follow a stride. *)
