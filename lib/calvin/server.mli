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

include Deployment.SERVER with type req = Message.wire and type resp = unit
(** [create] turns on lifecycle tracing (submit / sequenced / scheduled /
    locks / exec / committed) when the params carry an obs handle; the
    sequencer batches for the params' [epoch_us] (default
    {!Config.default_epoch_us}).  [start] starts the sequencer's epoch
    timer; [submit] accepts a client transaction at this server's
    sequencer.  Transactions never abort.  [gauges] are the jobs waiting
    on the lock-manager thread and the admitted transactions not yet
    executed locally. *)
