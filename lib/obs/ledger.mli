(** Epoch-granularity telemetry ledger: one structured record per epoch
    per node, plus a global event stream (crash / detect / promote /
    first-post-failover-commit) and, under [--runtime real], per-stratum
    worker-occupancy spans.

    The ledger is a passive accumulator — the engine calls the [note_*]
    setters from its existing hook sites — and rows render to JSONL
    ({!to_lines}) for the append-only TIMELINE.jsonl written through
    [Harness.Report].  Like the trace ring it is single-writer: only the
    domain driving the simulation calls [note_*] (worker domains never
    touch it; the planner samples pool counters from the orchestrator).

    A ledger is wired in via [Obs.Ctl.create ?ledger]; when absent every
    emit site reduces to one option test, so the default is
    behaviour-identical (pinned by a differential test). *)

type t

(** Per-replication-group slice of one epoch row: WAL-ship lag samples,
    close-gate wait, and the ack floor / liveness flags at close. *)
type group_row = {
  g_partition : int;
  mutable g_ship_lags : int list;  (** µs, newest first *)
  mutable g_gate_wait_us : int;  (** -1 until the close gate fires *)
  mutable g_ack_floor : int;  (** durable-everywhere seq at close; -1 *)
  mutable g_live_followers : int;  (** -1 until sampled at close *)
  mutable g_degraded : bool;  (** single-copy floor (no live follower) *)
}

type plan_row = {
  pl_nodes : int;
  pl_edges : int;
  pl_strata : int;
  pl_critical_path : int;
}

type row = {
  r_epoch : int;
  r_node : int;
  mutable r_open_us : int;  (** sim time the window opened; -1 unseen *)
  mutable r_close_us : int;  (** sim time the epoch closed; -1 open *)
  mutable r_wall_open_us : int;  (** host wall clock, µs; -1 unseen *)
  mutable r_wall_close_us : int;
  mutable r_assigned : int;  (** txns timestamped in this window here *)
  mutable r_fast_commits : int;
  mutable r_fast_merges : int;
  mutable r_watermark : int;  (** value watermark at close; -1 = BE down *)
  mutable r_watermark_lag_us : int;
  mutable r_groups : group_row list;  (** groups this node leads *)
  mutable r_plan : plan_row option;
}

type event_kind = Crash | Restart | Detect | Promote | First_commit

type event = {
  e_kind : event_kind;
  e_node : int;
  e_t_us : int;
  e_partition : int;  (** -1 when not partition-scoped *)
}

(** One real-runtime level batch evaluated on the worker pool: wall-clock
    bounds plus the per-worker completed-chunk deltas across the batch —
    the raw material for the per-worker Perfetto tracks in {!Export}. *)
type stratum = {
  s_node : int;
  s_t0_us : int;  (** host wall clock, µs *)
  s_t1_us : int;
  s_size : int;  (** plan nodes in the batch *)
  s_workers : int array;  (** chunks each worker completed *)
}

val create : unit -> t
(** An empty ledger with no configured epoch duration, no nodes and one
    replica; the cluster sets all three via {!set_meta}. *)

val set_meta : t -> cfg_epoch_us:int -> nodes:int -> replicas:int -> unit
(** [cfg_epoch_us] is the configured epoch duration the stretch ratio is
    measured against. *)

val wall_us : unit -> int
(** Host wall clock in µs (the ledger's wall-time source). *)

(* Epoch-row setters. *)

val note_open : t -> node:int -> epoch:int -> t_us:int -> unit
val note_assigned : t -> node:int -> epoch:int -> unit
val note_fast_commit : t -> node:int -> epoch:int -> unit
val note_fast_merges : t -> node:int -> epoch:int -> count:int -> unit

val note_ship_lag :
  t -> node:int -> epoch:int -> partition:int -> lag_us:int -> unit

val note_gate_wait :
  t -> node:int -> epoch:int -> partition:int -> wait_us:int -> unit

val note_group :
  t ->
  node:int ->
  epoch:int ->
  partition:int ->
  ack_floor:int ->
  live_followers:int ->
  degraded:bool ->
  unit

val note_plan :
  t ->
  node:int ->
  epoch:int ->
  nodes:int ->
  edges:int ->
  strata:int ->
  critical_path:int ->
  unit

val note_close :
  t ->
  node:int ->
  epoch:int ->
  t_us:int ->
  watermark:int ->
  watermark_lag_us:int ->
  unit

(* Event stream. *)

val note_event :
  t -> kind:event_kind -> node:int -> t_us:int -> ?partition:int -> unit ->
  unit
(** A [Promote] event also opens a first-commit watch on its partition:
    the next {!note_commit} touching it closes the watch with a
    [First_commit] event. *)

val awaiting_first_commit : t -> bool
(** True while a promotion awaits its first post-failover commit — the
    hot-path guard around {!note_commit}. *)

val note_commit : t -> node:int -> t_us:int -> partitions:int list -> unit

(* Real-runtime strata. *)

val note_stratum :
  t ->
  node:int ->
  t0_us:int ->
  t1_us:int ->
  size:int ->
  workers:int array ->
  unit

(* Reads. *)

val rows : t -> row list
(** Sorted by (epoch, node). *)

val strata : t -> stratum list
(** In emission order. *)

val clear : t -> unit
(** Forget accumulated rows/events (warm-up discard); meta stays. *)

val to_lines : t -> string list
(** Render to JSONL: one meta line, then epoch rows sorted by
    (epoch, node), events, and strata.  Ship-lag lists collapse to
    p50/p99 here.  The lines append to TIMELINE.jsonl via
    [Harness.Report.write_timeline]; a meta line starts a new segment, so
    appended runs stay separable. *)
