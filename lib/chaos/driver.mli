(** Run seeded fault {!Schedule}s against an engine and check the chaos
    invariants.

    For each schedule the driver performs three runs of the same scripted
    increment workload: the faulted run, a byte-for-byte replay (same
    seed, fresh cluster — their {!Trace} digests must be identical), and
    a crash-free reference.  It then checks:

    - {b completion soundness}: every submitted transaction eventually
      replied, despite loss / partitions / crashes;
    - {b state oracle}: the committed per-key totals equal the
      closed-form sum of the submitted increments, and equal the
      reference run's state (2PL, which may abandon transactions under
      induced lock-wait timeouts, is held to "at or below the oracle"
      when give-ups occurred);
    - {b determinism}: same seed, same trace hash;
    - {b monotone probes}: per-key value watermarks (ALOHA) and
      committed counters sampled during the run never regress — probes
      on a crashing node are excluded, since recovery rebuilds from the
      durable log;
    - {b at-most-once evaluation}: in crash-free ALOHA runs,
      [fcc.computed <= aloha.functors_installed]. *)

module type TARGET = sig
  include Kernel.Intf.ENGINE

  val transport : Net.Faults.transport
  val set_trace :
    cluster -> (src:Net.Address.t -> dst:Net.Address.t -> unit) -> unit
  val drop_stats : cluster -> Net.Network.drop_stats
  val apply : cluster -> faults:Net.Faults.t -> Schedule.event -> unit
  val probes :
    cluster ->
    keys:string list ->
    exclude_nodes:int list ->
    (string * (unit -> int)) list
end

type packed = Target : (module TARGET with type cluster = 'c) -> packed

val targets : (string * packed) list
(** [("aloha", …); ("calvin", …); ("twopl", …)]. *)

val target_of_name : string -> packed option

type report = {
  seed : int;
  engine : string;
  replicas : int;  (** replication degree the runs used (1 = none) *)
  fastpath : bool;
      (** the runs used the coordination-free commit lane for commutative
          transactions (the chaos workload is all-commutative, so every
          transaction takes it) *)
  trace_hash : string;
  trace_events : int;
  committed : int;
  submitted : int;  (** scripted transactions in the workload *)
  availability : (int * int) list;
      (** [(t_us, committed)] sampled every probe period during the
          faulted run — the availability-under-chaos time series *)
  drops : int;  (** total messages lost to injected faults *)
  drop_detail : Net.Network.drop_stats;
      (** the same drops broken out by cause, for CI artifacts *)
  timeline : string list;
      (** the faulted run's epoch-ledger JSONL segment
          ([Obs.Ledger.to_lines]) when [obs] carried a ledger; [[]]
          otherwise.  Append to TIMELINE.jsonl via
          [Harness.Report.write_timeline]. *)
  violations : string list;  (** empty = all invariants held *)
}

val passed : report -> bool

val run_schedule :
  ?replicas:int -> ?fastpath:bool -> ?obs:Obs.Ctl.t ->
  packed -> schedule:Schedule.t -> report
(** [replicas] sets the replication degree (engines without replication
    ignore it); the crash-free reference runs at the {e same} degree, so
    the state check reads "a replicated faulted run converges to a
    replicated fault-free run" — behaviour-neutrality of replication
    itself versus k = 1 is the differential test's job.  [obs] attaches
    an observability handle to the {e faulted} run only (tracing is
    behaviour-neutral, so the determinism check still holds against the
    bare replay); a ledger on it fills [report.timeline]. *)

val run_seed :
  ?replicas:int -> ?fastpath:bool -> ?obs:Obs.Ctl.t ->
  packed -> seed:int -> n_servers:int -> report
(** [run_schedule] on [Schedule.generate ~seed ~n_servers] — or, when
    [replicas > 1], on [Schedule.generate_replicated ~seed ~n_servers]
    (every backend crashed once, staggered). *)

val trace_hash_of :
  ?replicas:int -> ?fastpath:bool -> packed ->
  schedule:Schedule.t -> string
(** One faulted run, digest only (replay verification in tests). *)
