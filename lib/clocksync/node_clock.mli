(** A server's local clock: true (simulated) time plus a bounded offset and
    a slow drift, periodically re-disciplined as NTP would.

    ECC needs no tight synchronisation for correctness — only that each FE
    issue timestamps within the validity window the epoch manager granted —
    but skew affects performance by forcing conservative windows.  This
    model lets tests inject skew and verify both properties. *)

type t

val create :
  Sim.Engine.t -> ?offset_us:int -> ?drift_ppm:float -> unit -> t
(** [offset_us] (default 0) is the initial clock error; [drift_ppm]
    (default 0.0) is the frequency error in parts-per-million. *)

val perfect : Sim.Engine.t -> t
(** A clock that reads exactly the simulated time. *)

val now : t -> int
(** The local clock reading in microseconds.  Monotone non-decreasing even
    when a sync step would jump it backwards (steps are slewed, as real
    NTP does for small corrections). *)

val offset : t -> int
(** Current clock error: [now] minus the simulated time. *)

val skew_by : t -> us:int -> unit
(** Shift the clock offset by [us] (positive = run fast, negative = lag).
    Fault injection uses this to turn a node into a straggler mid-run.  No
    deployment runs {!sync}, so an injected skew lasts for the whole run.
    A negative skew does not violate {!now}'s monotonicity — readings
    plateau instead. *)

val sync : t -> error_bound_us:int -> unit
(** An NTP exchange completed: clamp the offset into
    [-error_bound_us, +error_bound_us]. *)

val start_sync_daemon : t -> period_us:int -> error_bound_us:int -> unit
(** Re-run {!sync} every [period_us] forever. *)
