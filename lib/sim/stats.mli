(** Streaming statistics for simulation measurements.

    {!Histogram} is a log-bucketed histogram (in the spirit of
    HDRHistogram) for non-negative integer samples such as microsecond
    latencies; percentile queries are approximate to within the bucket
    resolution (~6 % worst case, 16 sub-buckets per octave). *)

module Histogram : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  (** Record a non-negative sample. Negative samples raise
      [Invalid_argument]. *)

  val count : t -> int
  val mean : t -> float
  val min : t -> int
  val max : t -> int

  val percentile : t -> float -> int
  (** [percentile t p] with [p] in (0, 100]; e.g. [percentile t 99.0].
      Returns 0 for an empty histogram. *)

  val merge_into : dst:t -> src:t -> unit
  val clear : t -> unit
end
