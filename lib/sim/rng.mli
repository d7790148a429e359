(** Deterministic pseudo-random numbers (SplitMix64).

    Every stochastic component of the simulation draws from an explicit
    [Rng.t]; there is no global mutable randomness, so a run is a pure
    function of its seeds.  [split] derives an independent stream, which
    lets each simulated node own its own generator without coupling the
    streams. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** A new generator whose stream is independent of the parent's
    subsequent output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val uniform_int : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range [lo, hi]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)
