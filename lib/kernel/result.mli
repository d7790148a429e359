(** Measurement-window results, engine-agnostic.

    Aborts and auxiliary counters are labelled association lists driven
    by the engine's declared metric keys ({!Intf.ENGINE}), so engines
    with different abort taxonomies (ALOHA's install/compute split,
    2PL's give-ups) report faithfully through one type. *)

type stage_stat = {
  mean_us : float;
  p50_us : int;
  p95_us : int;
  p99_us : int;
  p999_us : int;
}

type t = {
  committed : int;
  aborts : (string * int) list;  (** per-abort-class counts, by label *)
  counters : (string * int) list;
      (** extra engine counters (restarts, lock timeouts, …) *)
  throughput_tps : float;
  lat_mean_us : float;
  lat_p50_us : int;
  lat_p95_us : int;
  lat_p99_us : int;
  lat_p999_us : int;
  stages : (string * float) list;
      (** (stage name, mean µs); ALOHA: install / wait / processing;
          Calvin: sequencing / lock+read / processing.  Kept as the
          simple mean view; {!field-stage_stats} has the full breakdown. *)
  stage_stats : (string * stage_stat) list;
      (** per-stage latency breakdown including tail percentiles *)
}

val abort_count : t -> int
(** Total aborts across all classes. *)

val abort : t -> string -> int
(** Count for one abort label; 0 when absent. *)

val pp : Format.formatter -> t -> unit

val extract :
  metrics:Sim.Metrics.t ->
  measure_us:int ->
  committed_key:string ->
  latency_key:string ->
  abort_keys:(string * string) list ->
  counter_keys:(string * string) list ->
  stage_keys:(string * string) list ->
  t
(** Read a result out of a cluster's metrics after the measurement
    window.  Key lists are [(label, metric key)] pairs. *)
