(** Transaction lifecycle tracing: a fixed ring buffer of int-encoded
    events, cheap enough to leave compiled into every engine hot path.

    An event is (txn id, stage, node, sim-time, arg, fault-tag), stored in
    parallel [int array]s — no closures, no per-event allocation.  Tracing
    is toggled by wiring an {!Obs.Ctl.t} into [Kernel.Params]; when absent
    the emit sites reduce to one [match] on [None].

    Sampling is per transaction and deterministic: a txn is traced iff
    [txn mod sample = 0] (sample = 1 traces everything), so every stage of
    a sampled transaction is kept and unsampled transactions cost one
    modulo.  Events not tied to a transaction (epoch closes, fault
    markers) pass [txn = -1] and are always kept while tracing is on. *)

type stage =
  (* ALOHA lifecycle (§III / Algorithm 1) *)
  | Submit  (** client request reached the frontend *)
  | Epoch_assign  (** timestamp acquired inside an epoch window *)
  | Functor_write  (** write-only phase done (all installs acked) *)
  | Batch_ack  (** a backend reported its functor batch final *)
  | Epoch_close  (** an epoch closed at this node ([arg] = epoch) *)
  | Compute_start  (** processor dispatched the functor for evaluation *)
  | Compute_done  (** a pending functor reached its final value *)
  | Read_served  (** a read (RO txn or on-demand Get) was answered *)
  (* Calvin sequencing / scheduling *)
  | Sequenced  (** txn shipped in a sequencer batch ([arg] = epoch) *)
  | Scheduled  (** scheduler admitted the txn to the lock manager *)
  | Locks_acquired  (** all local locks granted *)
  | Exec_start
  | Exec_done
  (* 2PL *)
  | Lock_timeout  (** participant-side wound by timeout *)
  | Prepared  (** 2PC phase 1 complete at the coordinator *)
  (* shared terminal / control stages *)
  | Committed
  | Aborted
  | Restarted  (** 2PL backoff-and-retry *)
  (* network fault markers (emitted via {!Ctl.note_fault}) *)
  | Fault_drop
  | Fault_delay
  (* per-epoch dependency-graph planner *)
  | Plan_build  (** a plan was built at epoch close ([arg] = node count) *)
  | Plan_evaluate
      (** the last node of a plan finalised ([arg] = elapsed µs since the
          plan was dispatched) *)
  | Stratum_dispatch
      (** real runtime: a planner level batch left for the worker-domain pool
          ([arg] = batch size) *)
  (* replication *)
  | Wal_ship
      (** a primary shipped freshly durable WAL entries to its followers
          ([arg] = entry count) *)
  | Promote
      (** a follower was promoted to primary ([arg] = partition) *)
  (* algebraic fast path *)
  | Fastpath_commit
      (** an all-commutative transaction committed coordination-free at
          install-ack time, without waiting for epoch close or functor
          computation ([arg] = commit latency in µs) *)

val stage_name : stage -> string
(** Stable lower-snake-case name, e.g. ["epoch_assign"] — the [name] field
    of exported Chrome trace events. *)

type t

val create : ?capacity:int -> ?sample:int -> unit -> t
(** [capacity] (default 65536) events are kept; older ones are
    overwritten.  [sample] (default 1) keeps 1-in-N transactions. *)

val sample_rate : t -> int
val capacity : t -> int

val would_sample : t -> txn:int -> bool
(** The hot-path gate: true when the txn is sampled. *)

val emit :
  t -> txn:int -> stage:stage -> node:int -> ts:int -> arg:int -> tag:int ->
  unit
(** Unconditionally record one event (callers gate with
    {!would_sample}).  [arg] carries the epoch where known, else [-1];
    [tag] is 1 when the event is fault-correlated. *)

type event = {
  txn : int;
  stage : stage;
  node : int;
  ts : int;
  arg : int;
  tag : int;
}

val length : t -> int
(** Events currently held (≤ capacity). *)

val total : t -> int
(** Events ever emitted (≥ length; the difference wrapped). *)

val dropped : t -> int
(** Events lost to ring wrap-around. *)

val iter : t -> f:(event -> unit) -> unit
(** Oldest-to-newest emission order (timestamps are almost sorted; the
    [Submit] stage is emitted retroactively and may precede its
    neighbours — exporters that need sorted output sort). *)

val clear : t -> unit
(** Forget everything (used to discard the warm-up window). *)
