(** Globally unique transaction timestamps.

    ECC orders transactions by timestamps generated in a decentralised
    manner (§II): each frontend derives timestamps from its local clock,
    made globally unique by embedding the node id and a per-microsecond
    sequence number in the low bits.  Comparing timestamps therefore
    compares (local-clock microsecond, node, seq) lexicographically, and
    two distinct transactions never collide.

    The representation is a single non-negative [int], so timestamps double
    as version numbers in the multi-version store with cheap comparisons. *)

type t = private int

val seq_bits : int

val make : time_us:int -> node:int -> seq:int -> t
(** Raises [Invalid_argument] when a component exceeds its field width. *)

val zero : t
(** Smaller than every timestamp produced by [make] with [time_us > 0];
    used as the version of pre-loaded (initial) data. *)

val infinity : t
(** Greater than every realistic timestamp; used as an upper bound in
    reads that want the latest version. *)

val of_int : int -> t
(** Trust an integer already produced by [make] (used at decode sites). *)

val to_int : t -> int
val time_us : t -> int
val node : t -> int
val seq : t -> int

val window_lo : time_us:int -> t
(** Smallest timestamp whose time field is >= [time_us]. *)

val window_hi : time_us:int -> t
(** Largest timestamp whose time field is <= [time_us]. *)

val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool

val pp : Format.formatter -> t -> unit
