(** One-way network latency models.

    ALOHA-DB targets a private data-centre network (§III-A): low base
    latency with modest jitter.  The models here let experiments dial in
    base latency, jitter, and anomalies (delay spikes for straggler and
    fault-injection tests). *)

type t

val lan : t
(** The private data-centre network every deployment models:
    [uniform ~base:80 ~jitter:40]. *)

val constant : int -> t
(** Always the given number of microseconds. *)

val uniform : base:int -> jitter:int -> t
(** [base + U(0, jitter)] microseconds. *)

val exponential_tail : base:int -> mean_tail:float -> t
(** [base + Exp(mean_tail)]: a shifted exponential, a common fit for
    intra-DC RTT distributions. *)

val spiky : normal:t -> spike:t -> spike_probability:float -> t
(** With probability [spike_probability] draw from [spike], otherwise from
    [normal].  Used for fault-injection experiments. *)

val sample : t -> Sim.Rng.t -> int
(** A one-way latency in microseconds (>= 0). *)

val local_delivery : int
(** Latency used when a node sends a message to itself (loopback):
    essentially free but non-zero to preserve event ordering. *)
