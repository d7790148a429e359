(** Bounded Zipf-distributed sampling.

    Used for skewed key-popularity workloads.  The sampler follows the
    rejection-inversion method popularised by YCSB's ScrambledZipfian
    (Gray et al., "Quickly generating billion-record synthetic databases"),
    which samples in O(1) without materialising the full CDF. *)

type t

val create : n:int -> theta:float -> t
(** [create ~n ~theta] samples ranks in [0, n) with exponent [theta]
    (0 < theta < 1 for the Gray et al. method; theta ~ 0.99 is the YCSB
    default).  [n] must be positive. *)

val sample : t -> Rng.t -> int
(** A rank in [0, n); rank 0 is the most popular. *)
