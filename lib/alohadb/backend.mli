(** The backend role of one server: it stores the partitions its
    {!Replica} leads, installs and aborts functors, tracks each
    transaction's local batch until it reports [Batch_done], and runs
    the compute engine, processors and planner.

    Everything a crash destroys — the engine, both processors, the
    planner, batch tracking, the install-verdict cache and the
    unacknowledged Batch_dones — is one incarnation, which {!crash}
    replaces whole.  Continuations of the dead incarnation still in
    flight (compute jobs on the worker pool, resend timers) find it dead
    and send nothing. *)

type t

val create :
  node:Node.t -> replica:Replica.t -> registry:Functor_cc.Registry.t -> t

val engine : t -> Functor_cc.Compute_engine.t
(** The current incarnation's engine. *)

val crash : t -> unit

(** {2 Data plane} *)

val install :
  t -> src:Net.Address.t -> Message.install -> (Message.resp -> unit) ->
  unit
val abort :
  t -> ts:int -> keys:Mvstore.Key.t list -> (Message.resp -> unit) -> unit
val serve_get :
  t -> key:Mvstore.Key.t -> version:int -> (Message.resp -> unit) -> unit
val serve_plan_sub :
  t -> src:Net.Address.t -> key:Mvstore.Key.t -> version:int ->
  dst_key:Mvstore.Key.t -> dst_version:int -> unit
val deliver_push :
  t -> key:Mvstore.Key.t -> version:int -> src_key:Mvstore.Key.t ->
  Functor_cc.Value.t option -> unit
val deliver_dep_write :
  t -> key:Mvstore.Key.t -> version:int -> final:Functor_cc.Funct.final ->
  unit
val batch_done_acked : t -> txn_id:int -> partition:int -> unit
(** Storage requests a down backend, or one that does not lead the key's
    partition, drops (counted under ["aloha.be_dropped"]); the sender's
    retry re-resolves the owner. *)

val read :
  t -> key:Mvstore.Key.t -> version:int ->
  (Functor_cc.Value.t option -> unit) -> unit
(** A read for this server's frontend: through the local engine when
    this backend is up and owns the key, else from the owner. *)

(** {2 Epochs and recovery} *)

val release_closed : t -> upto_epoch:int -> unit
(** Plan and dispatch the buffered functors of every epoch up to
    [upto_epoch], and fold its fast-lane deltas. *)

val note_close : t -> Obs.Ledger.t -> epoch:int -> unit
(** Ledger: the value watermark at close (-1 while down). *)

val replay : t -> partition:int -> entries:Wal.entry list -> unit
(** Replay log entries into the current incarnation (restart: its own
    durable log; promotion: the shipped log), re-buffer still-pending
    functors and rebuild their batches. *)

(** {2 Storage access and probes} *)

val load_initial : t -> key:Mvstore.Key.t -> Functor_cc.Value.t -> unit
val compute_queue_depth : t -> int
val inflight_functors : t -> int
val value_watermark_lag_us : t -> int
