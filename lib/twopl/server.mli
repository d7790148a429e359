(** One server of the 2PL/2PC baseline: a single-version partition guarded
    by a strict two-phase-locking table, plus a coordinator side that
    drives lock-acquire / execute / two-phase-commit for client
    transactions and restarts them (bounded, with jittered backoff) after
    lock timeouts.

    This is the paper's "transaction-level concurrency control" strawman:
    a transaction can commit its keys only after {e every} conflict at
    {e every} participant is resolved, and the 2PC rounds enlarge the
    contention footprint — which is why it collapses under contention
    while ALOHA-DB does not. *)

type t

val create :
  sim:Sim.Engine.t ->
  rpc:Message.rpc ->
  addr:Net.Address.t ->
  node_id:int ->
  partition_of:(string -> int) ->
  addr_of_partition:(int -> Net.Address.t) ->
  registry:Calvin.Ctxn.registry ->
  metrics:Sim.Metrics.t ->
  ?obs:Obs.Ctl.t ->
  seed:int ->
  unit -> t
(** Transactions reuse Calvin's one-shot stored-procedure model.  [obs]
    turns on lifecycle tracing (submit / locks / prepared / committed /
    restarted / timeouts). *)

val submit : ?k:(unit -> unit) -> t -> Calvin.Ctxn.t -> unit
(** Run a transaction to completion (retrying on lock timeouts); [k]
    fires when it finally commits or is given up after [max_retries]. *)

val load_initial : t -> key:string -> Functor_cc.Value.t -> unit

val read_local : t -> string -> Functor_cc.Value.t option

val lock_waits : t -> int
(** Lock requests still waiting (or timing out) locally — gauge probe. *)

val prepared_count : t -> int
(** Staged-but-uncommitted 2PC participants — gauge probe. *)
