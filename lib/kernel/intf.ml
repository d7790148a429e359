(** The two signatures the kernel composes: a concurrency-control
    {!ENGINE} and a {!WORKLOAD}.

    An engine packs an existing cluster implementation behind a uniform
    surface: create / register handlers / bulk load / start / submit,
    plus the metric-key constants the generic driver needs to extract a
    {!Result.t}.  A workload is a pure description: handler registration,
    initial data, and a request generator producing engine-neutral
    {!Txn.t} values.  [Run.run] owns everything in between. *)

module type ENGINE = sig
  val name : string
  (** CLI / report identifier, e.g. ["aloha"]. *)

  type cluster

  val create : ?seed:int -> Params.t -> cluster
  (** Build a stopped cluster.  Handlers may be registered and data
      loaded before {!start}. *)

  val register : cluster -> string -> Functor_cc.Registry.handler -> unit
  (** Register a named stored-procedure fragment.  Raises
      [Invalid_argument] on duplicate names. *)

  val load : cluster -> string -> Functor_cc.Value.t -> unit
  (** Bulk-load one key before {!start}. *)

  val start : cluster -> unit
  val stop : cluster -> unit
  (** [stop] is a quiesce hook; the simulated engines treat it as a
      no-op. *)

  val sim : cluster -> Sim.Engine.t
  val metrics : cluster -> Sim.Metrics.t
  val n_servers : cluster -> int

  val submit : cluster -> fe:int -> Txn.t -> k:(Txn.reply -> unit) -> unit
  (** Submit through frontend [fe]; [k] fires exactly once when the
      transaction commits or gives up. *)

  val read_committed : cluster -> string -> Functor_cc.Value.t option
  (** Latest committed value of a key (simulation-global read, for
      checks and differential tests; not part of the transaction path). *)

  (** {2 Metric keys}

      The generic driver extracts results through these names instead of
      hardcoding per-engine strings, so an engine whose aborts live under
      e.g. ["twopl.given_up"] reports them faithfully. *)

  val committed_key : string
  val latency_key : string

  val abort_keys : (string * string) list
  (** [(label, metric key)] per abort class; empty when the engine cannot
      abort (deterministic stored procedures). *)

  val counter_keys : (string * string) list
  (** Additional per-engine counters worth surfacing (restarts, lock
      timeouts, …). *)

  val stage_keys : (string * string) list
  (** [(label, latency histogram key)] for the stage breakdown
      (Fig. 10). *)
end

type packed = Pack : (module ENGINE with type cluster = 'c) -> packed

module type WORKLOAD = sig
  val name : string

  type cfg

  val register :
    cfg -> register:(string -> Functor_cc.Registry.handler -> unit) -> unit
  (** Install the workload's handlers through the engine's [register]. *)

  val load :
    cfg ->
    n_servers:int ->
    put:(string -> Functor_cc.Value.t -> unit) ->
    unit
  (** Emit the initial database through [put]. *)

  val generator : cfg -> n_servers:int -> seed:int -> fe:int -> Txn.t
  (** A stateful request generator (partial application of the first
      three arguments); deterministic for a given seed. *)
end
