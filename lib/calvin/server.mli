(** One Calvin server: sequencer + scheduler + executors over a
    single-version in-memory partition.

    Pipeline per transaction (Thomson et al. 2012, as summarised in the
    paper's §V-D):

    + the {e sequencer} on the origin server buffers client requests and
      ships them once per epoch to every participant's scheduler (one
      batch message per server per epoch — the scheduler barrier);
    + the {e scheduler} admits epochs in order and funnels lock
      acquisition for every transaction, in the global deterministic
      order, through a single-threaded lock manager;
    + once all local locks are granted, an {e executor} worker reads the
      local part of the read set, broadcasts it to the other participants,
      waits for their reads, redundantly executes the stored procedure,
      applies the local writes, and releases the locks (again through the
      lock-manager thread).

    Transactions never abort (deterministic execution); the origin counts
    a transaction complete when every participant reports Done. *)

type t

val create :
  sim:Sim.Engine.t ->
  rpc:Message.rpc ->
  addr:Net.Address.t ->
  node_id:int ->
  n_servers:int ->
  partition_of:(string -> int) ->
  addr_of_partition:(int -> Net.Address.t) ->
  registry:Ctxn.registry ->
  epoch_us:int ->
  metrics:Sim.Metrics.t ->
  ?obs:Obs.Ctl.t ->
  unit -> t
(** [obs] turns on lifecycle tracing (submit / sequenced / scheduled /
    locks / exec / committed) for transactions this server touches. *)

val start : t -> unit
(** Start the sequencer's epoch timer. *)

val submit : ?k:(unit -> unit) -> t -> Ctxn.t -> unit
(** Accept a client transaction at this server's sequencer; [k] fires when
    every participant has reported completion (closed-loop drivers). *)

val load_initial : t -> key:string -> Functor_cc.Value.t -> unit

val read_local : t -> string -> Functor_cc.Value.t option
(** Direct storage peek (tests and oracle checks only). *)

val lock_queue_depth : t -> int
(** Jobs waiting on the lock-manager thread (saturation diagnostics). *)

val inflight_count : t -> int
(** Admitted transactions not yet executed locally — gauge probe. *)
