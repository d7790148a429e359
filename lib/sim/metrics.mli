(** Named counters and latency recorders for a simulation run.

    A [Metrics.t] is plumbed through a cluster so that every component can
    record events under stable names; the harness reads them out at the end
    of the measurement window.  Counter and recorder names are created on
    first use. *)

type t

val create : unit -> t

val incr : t -> string -> unit
val get : t -> string -> int
(** 0 when the counter was never touched. *)

val counter : t -> string -> int ref
(** Static handle to a named counter: resolve once at component creation,
    then bump with [incr r] — no string hash on the hot path.  The ref is
    zeroed (not replaced) by {!reset}, so handles stay valid across
    warm-up resets. *)

val record_latency : t -> string -> int -> unit
(** Record a microsecond sample under a named histogram. *)

val histogram : t -> string -> Stats.Histogram.t
(** Static handle to a named histogram, same contract as {!counter}:
    cleared in place by {!reset}, never replaced. *)

val latency : t -> string -> Stats.Histogram.t option

val set_gauge : t -> string -> float -> unit
(** Publish the current value of a named gauge (last write wins; a gauge
    is an instantaneous level, not an accumulator). *)

val gauges : t -> (string * float) list
(** All gauges with their latest values, sorted by name. *)

val reset : t -> unit
(** Zero every counter / histogram / gauge (names are kept).
    Used to discard the warm-up window. *)
