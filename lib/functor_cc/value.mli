(** Database values.

    The store is schemaless: a value is an int, float, string, or tuple of
    values.  Workloads (TPC-C rows, YCSB counters) encode their records in
    this type.  All operations are pure. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Tup of t list

val int : int -> t
(** Ints in 0..1023 share one preallocated box each; build [Int] only
    through this function so every value gets them. *)

val float : float -> t
val str : string -> t
val tup : t list -> t

val to_int : t -> int
(** Raises [Invalid_argument] when the value is not an [Int]. *)

val to_str : t -> string
val to_tup : t -> t list

val nth : t -> int -> t
(** Field access on a [Tup].  Raises [Invalid_argument] for an index
    outside the tuple and for a value that is not a [Tup]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

