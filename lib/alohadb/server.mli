(** An ALOHA-DB server: one process acting as both frontend (transaction
    coordinator) and backend (partition storage + functor processors), as
    in the paper's deployment (§III-A), plus the replica of WAL shipping
    and failover.  Each role is a module of its own over one shared
    {!Node} context, and the dependencies run one way:

    {v
    Node  <-  Replica  <-  Backend  <-  Frontend  <-  Server
                 (Tracker: pure, used by Frontend)
    v}

    - {!Replica} owns the logs this server leads and follows, shipping,
      the epoch close gate and which partitions it leads;
    - {!Backend} owns install, abort, batch tracking and the compute
      engine, all in one incarnation that a backend crash replaces;
    - {!Frontend} owns timestamps, both commit lanes, the second-round
      abort and delayed reads; its completion decisions come from the
      pure {!Tracker}.

    This module wires them to the data plane and the epoch participant's
    hooks, and performs the transitions that cross roles: {!crash_be},
    {!restart_be} and {!adopt_partition}.  All CPU work is charged to
    the server's worker pool. *)

type t

val create :
  sim:Sim.Engine.t ->
  data:Message.rpc ->
  control:Epoch.Protocol.rpc ->
  fabric:Replica.fabric ->
  addr:Net.Address.t ->
  node_id:int ->
  em:Net.Address.t ->
  clock:Clocksync.Node_clock.t ->
  partition_of:(Mvstore.Key.t -> int) ->
  addr_of_partition:(int -> Net.Address.t) ->
  my_partition:int ->
  registry:Functor_cc.Registry.t ->
  config:Config.t ->
  durable:bool ->
  hardened:bool ->
  metrics:Sim.Metrics.t ->
  ?obs:Obs.Ctl.t ->
  ?real_pool:Runtime.Pool.t ->
  unit -> t
(** Wires up all handlers; the server is passive until the EM grants the
    first epoch.  [fabric] is the ship plane and the route every
    partition's group is registered in; when [durable] the server leads
    its home partition's group from the start, and [hardened] turns on
    retries and replica-gated acks (see {!Config}).  [obs] turns on lifecycle tracing for every transaction
    this server coordinates or stores.  [real_pool] (shared cluster-wide)
    makes the planner evaluate its key runs on worker domains — the
    [--runtime real] backend. *)

val submit : t -> Txn.request -> (Txn.result -> unit) -> unit
(** Client entry point (clients talk to their frontend directly, as the
    benchmark harness of the paper does).  The callback fires according to
    the request's acknowledgement mode. *)

val load_initial : t -> key:string -> Functor_cc.Value.t -> unit
(** Preload a row into this server's partition at version 0.  Only valid
    for keys this partition owns. *)

val engine : t -> Functor_cc.Compute_engine.t
(** The partition's compute engine (tests reach into storage through
    it). *)

val pool : t -> Sim.Worker_pool.t

val participant : t -> Epoch.Participant.t

val addr : t -> Net.Address.t

val clock : t -> Clocksync.Node_clock.t
(** The server's local clock (fault injection skews it). *)

val held_requests : t -> int
(** Client requests waiting for a usable timestamp window. *)

val wal : t -> Wal.t option
(** The home partition's write-ahead log, while this server leads it:
    [None] when the server is not durable, or after a failover promoted
    another replica of the home partition. *)

val compute_queue_depth : t -> int
(** Functor items awaiting dispatch or CPU (buffered until their epoch
    closes plus queued at the worker pool) — gauge probe. *)

val inflight_functors : t -> int
(** Installed functors not yet final on this partition — gauge probe. *)

val value_watermark_lag_us : t -> int
(** Age of the newest final version on this partition (0 before any
    functor finalises) — gauge probe. *)

val wal_pending_bytes : t -> int
(** Nominal unflushed bytes summed over every log this server writes —
    the partitions it leads and the ones it follows (0 when not durable)
    — gauge probe. *)

val replication_lag : t -> int
(** Total entries shipped-but-unacked across the replication groups this
    server leads (0 at k = 1) — gauge probe. *)

val crash_be : t -> unit
(** Crash the backend role of this server: the unflushed WAL tail and all
    volatile backend state (installed-but-unlogged functors, batch
    tracking, the compute engine) are lost, and storage/compute requests
    are dropped (counted under ["aloha.be_dropped"]) until {!restart_be}.
    The frontend role and the epoch participant stay up — coordinator
    failover is out of scope (see {!Recovery}) — so transactions this
    server coordinates keep retrying their installs and hold their epoch
    open, which is exactly the barrier that preserves atomicity across
    the crash.  Raises [Invalid_argument] if already down. *)

val restart_be : t -> unit
(** Restart a crashed backend: rejoin as a follower every partition a
    failover promoted away meanwhile, then, for every log this server
    still leads, replay the durable log ({!Recovery.replay}), re-buffer
    still-pending functors at their logged epochs, and release every
    epoch that closed before or during the outage.  State survives only
    on a durable server; without a WAL the backend restarts empty.
    Raises [Invalid_argument] if not down. *)

val be_down : t -> bool

(** {2 Replication (the cluster's failure monitor)} *)

val adopt_partition :
  t -> partition:int -> down:Net.Address.t list -> unit
(** Promotion: succeed the crashed primary of [partition] (the failure
    monitor's verdict; the route must already point here so the new term
    is visible).  Replays the shipped WAL into the local engine,
    re-buffers still-pending functors, rebuilds batch tracking so
    recomputation re-notifies coordinators, and starts shipping to the
    remaining followers.  [down] lists members currently believed
    crashed (excluded from the gating floor).  No-op if already primary;
    raises [Invalid_argument] if not a follower of [partition]. *)

val note_member_down : t -> partition:int -> member:Net.Address.t -> unit
(** Failure-monitor verdict: exclude [member] from the gating floor of
    [partition]'s group, if this server leads it. *)

val note_member_rejoin : t -> partition:int -> member:Net.Address.t -> unit
(** [member] restarted (with an empty follower log): re-admit it and
    immediately re-ship the whole log so it catches up. *)

val set_lifecycle_hooks :
  t -> on_crash:(unit -> unit) -> on_restart:(unit -> unit) -> unit
(** Observe this server's own backend crash/restart transitions — the
    cluster's failure monitor drives promotion and floor bookkeeping
    from these. *)
