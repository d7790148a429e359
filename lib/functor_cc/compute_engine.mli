(** The functor computing engine — Algorithm 1 of the paper, adapted to an
    asynchronous (continuation-passing) execution model.

    One engine instance lives in each backend (BE) and owns that
    partition's {!Mvstore.Table}.  The engine implements:

    - [get] — Algorithm 1's [Get]: latest version not exceeding the bound;
      triggers on-demand computation of pending functors, skips ABORTED
      versions downwards, returns [None] for DELETED keys;
    - [compute_key] — Algorithm 1's [Compute]: evaluate all pending
      functors of a key from the watermark up to a version, ascending,
      advancing the value watermark as finals accumulate;
    - the §IV-B recipient-set optimisation (proactive value pushes);
    - the §IV-E dependent-key mechanism (determinate functors whose
      deferred writes resolve [Dep_marker] placeholders);
    - in-epoch aborts (the coordinator's second-round rollback).

    Cross-partition effects (remote reads, pushes, deferred writes,
    completion notifications) are delegated to callbacks supplied by the
    surrounding server, which routes them over the simulated network.
    Because every read is of a strictly lower version and version-0 initial
    data is final, the recursion always terminates.

    Keys are interned ({!Mvstore.Key.t}).  Internally the chain handle is
    threaded through the whole per-key computation, so a Get that
    triggers computation performs exactly one table probe; finalisation
    and watermark refresh perform none. *)

type t

type callbacks = {
  is_local : Mvstore.Key.t -> bool;
      (** does this partition own the key? *)
  remote_get :
    key:Mvstore.Key.t -> version:int -> (Value.t option -> unit) -> unit;
      (** read a non-local key (latest version <= [version]) *)
  send_push :
    dst_key:Mvstore.Key.t -> version:int -> src_key:Mvstore.Key.t ->
    Value.t option -> unit;
      (** deliver a recipient-set push to the partition owning [dst_key] *)
  send_dep_write :
    key:Mvstore.Key.t -> version:int -> Funct.final -> unit;
      (** deliver a deferred (dependent-key) write to the key's partition *)
  notify_final :
    key:Mvstore.Key.t -> version:int -> pending:Funct.pending ->
    final:Funct.final -> unit;
      (** a pending functor reached its final state (drives coordinator
          completion tracking and stage metrics) *)
  exec : cost:int -> (unit -> unit) -> unit;
      (** charge [cost] µs of CPU, then continue — wired to the server's
          worker pool *)
  now : unit -> int;
      (** current simulated time, for stage-timing bookkeeping *)
}

val create :
  registry:Registry.t ->
  callbacks:callbacks ->
  compute_cost_us:int ->
  metrics:Sim.Metrics.t ->
  unit -> t

val table : t -> Funct.t Mvstore.Table.t

val load_initial : t -> key:Mvstore.Key.t -> Value.t -> unit
(** Install initial data at version 0 (final, below every timestamp). *)

val install :
  t -> key:Mvstore.Key.t -> version:int -> lo:int -> hi:int -> Funct.t ->
  (unit, Mvstore.Table.put_error) result
(** The write-only-phase [Put]: version must lie in [lo, hi]. *)

val get :
  t -> key:Mvstore.Key.t -> version:int -> (Value.t option -> unit) -> unit

val compute_key : t -> key:Mvstore.Key.t -> version:int -> unit

(** {2 Planner support}

    A {!prepared} handle binds a still-pending record to its chain once,
    at plan-construction time, so the planner can evaluate it later with
    zero table probes and no watermark rescan.  Handles are only valid
    for the engine instance that produced them. *)

type prepared

val prepare : t -> key:Mvstore.Key.t -> version:int -> prepared option
(** [None] when the (key, version) record is absent or already final. *)

val prepare_in :
  chain:Funct.t Mvstore.Chain.t -> key:Mvstore.Key.t -> version:int ->
  prepared option
(** Like {!prepare} with the key's chain already in hand — bulk callers
    (the planner) probe the table once per distinct key, not once per
    item.  [chain] must be [key]'s chain in the owning engine's table. *)

val compute_prepared : t -> prepared -> unit
(** Evaluate a prepared node via [ensure_computing].  Idempotent: if the
    record turned final (or started computing) since the plan was built,
    this is a no-op — at-most-once is preserved either way. *)

val prepared_key : prepared -> Mvstore.Key.t
val prepared_version : prepared -> int
val prepared_pending : prepared -> Funct.pending

val prepared_is_final : prepared -> bool
(** Whether the node's record has turned final since it was prepared. *)

val merge_delta : t -> key:Mvstore.Key.t -> version:int -> unit
(** Fold a coordination-free fast-path delta (a commutative built-in
    installed outside any epoch batch) into its chain: evaluate the
    pending record at (key, version) now, pulling earlier own-key
    versions on demand.  Idempotent and at-most-once — a no-op when the
    record is absent, already final, or already computing (an on-demand
    read may have folded it first).  Counted as [fcc.fastpath_merges]. *)

(** {2 Real-runtime parallel evaluation}

    The [--runtime real] backend evaluates one planner level at a time on
    a pool of worker domains, one task per key run (a key's
    version-ascending nodes at that level, in order, on one worker).  A
    level's runs have distinct keys and only read other keys' values
    finalised by earlier levels, so the worker side touches nothing but
    its own run's chain.  A plan keeps one {!par_slot} per node, indexed
    like its nodes: the claim, then the outcome.  Every cross-cutting
    effect (pushes, dependent writes, waiters, metrics, interning) waits
    in the slot for {!par_commit} on the orchestrating domain after the
    batch barrier.  Items the stager rejects — or whose evaluation could
    not complete chain-locally — fall back to the unchanged sequential
    dispatch path. *)

type par_slot

val par_slots : int -> par_slot array
(** [par_slots n]: [n] unclaimed slots, one per plan node. *)

val par_stage : t -> now:int -> par_slot array -> int -> prepared -> unit
(** [par_stage t ~now slots i node] claims and stages plan node [i]: it
    leaves slot [i] unclaimed when the item must take the sequential path
    (already final/computing, Dep_marker, missing handler, remote or
    still-pending reads).  A claim moves the record [Installed] →
    [Computing] and stamps [retrieved_at_us] with [now] if unset.  A node
    with a read set walks other keys' chains, so the orchestrating domain
    stages it, while workers are idle, before its level's batch. *)

val par_eval : t -> now:int -> par_slot array -> int -> prepared -> unit
(** Worker domain.  Stages a node without a read set (as {!par_stage},
    touching only its own record), then, if slot [i] is claimed, does
    chain-local work only: resolve own-key prev over final records,
    evaluate, flip the record final, advance the watermark, and record
    the outcome in the slot.  The claim is in the slot before evaluation
    starts.  If the own-key walk finds a pending record the slot stays
    claimed and the record pending; an exception other than [Not_found] /
    [Invalid_argument] from a user handler propagates with the same
    effect.  A built-in with no recipients and no dependents allocates
    nothing. *)

type par_result =
  | Par_untouched  (** never claimed *)
  | Par_evaluated  (** evaluated on a worker; effects applied *)
  | Par_released  (** claimed but not evaluated; claim released *)

val par_commit : t -> par_slot array -> int -> prepared -> par_result
(** Main domain, after the batch barrier.  Applies slot [i]'s deferred
    effects; or, for a claim left unevaluated, releases it ([Computing] →
    [Installed]) so the sequential dispatch re-evaluates it.  A built-in
    with no recipients and no dependents has no deferred effect beyond
    counting, [notify_final] and its record's waiters, and its commit
    does only that. *)

val deliver_push :
  t -> key:Mvstore.Key.t -> version:int -> src_key:Mvstore.Key.t ->
  Value.t option -> unit

val deliver_dep_write :
  t -> key:Mvstore.Key.t -> version:int -> final:Funct.final -> unit

val abort_version : t -> key:Mvstore.Key.t -> version:int -> unit
(** Coordinator-initiated in-epoch abort of the functor at (key, version).
    A no-op when the version is absent or already final. *)

val watermark : t -> key:Mvstore.Key.t -> int
(** The key's value watermark (-1 when the key is unknown). *)

val gc : t -> before:int -> int
(** Reclaim historical versions: for every key, drop records older than
    [min before watermark], keeping the newest final at or below the
    horizon as the base value for reads at or above it.  Reads strictly
    below the horizon may observe the key as absent — GC shortens the
    historical-read window.  Returns records reclaimed.  Safe at any
    time: only immutable (sub-watermark) history is touched. *)

val pending_count : t -> int
(** Number of records still pending across the partition (test helper;
    O(table size)). *)
