(** One-way network latency models.

    ALOHA-DB targets a private data-centre network (§III-A): low base
    latency with modest jitter. *)

type t

val lan : t
(** The private data-centre network every deployment models: 80 µs plus
    a uniform draw from 0..40 µs. *)

val constant : int -> t
(** Always the given number of microseconds. *)

val sample : t -> Sim.Rng.t -> int
(** A one-way latency in microseconds (>= 0). *)

val local_delivery : int
(** Latency used when a node sends a message to itself (loopback):
    essentially free but non-zero to preserve event ordering. *)
