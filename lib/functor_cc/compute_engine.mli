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

    A plan names each still-pending record it will evaluate by index, in
    parallel arrays the planner fills at plan-construction time, so
    evaluation needs zero table probes and no watermark rescan, and the
    plan allocates nothing per node.  A plan is only valid for the engine
    instance whose table holds its records. *)

type nodes = {
  keys : Mvstore.Key.t array;  (** by dense key index [d] *)
  chains : Funct.t Mvstore.Chain.t array;  (** [keys.(d)]'s chain *)
  node_key : int array;  (** node [i]'s dense key index *)
  node_ver : int array;  (** node [i]'s version *)
  node_op : int array;
      (** node [i]'s {!plain_op} under the real runtime, or, once the
          fold took it, its folded result ({!is_folded}); empty under the
          simulated runtime *)
  records : Funct.t array;  (** node [i]'s record, in its chain *)
  pendings : Funct.pending array;
      (** node [i]'s pending state when the plan was built *)
}

val plain_op : Funct.pending -> int
(** Non-zero for a plain built-in the real runtime may fold: an installed
    ADD/SUBTR/MAX/MIN without waiters, read set, recipients or dependents
    whose first argument is an int (of up to 60 bits); the built-in and
    its argument, packed in one int. *)

(** {2 The fold of plain built-ins}

    Algorithm 1's functor-computing loop behind the value watermark, for
    one key's plain built-ins taken in version order.  Each step takes the
    previous result as its operand when its record is the chain entry
    after the one the fold finalised last, else the final value below it
    over chain indices; writes the result as the record's shared
    small-int state; and the watermark moves once per stretch of
    consecutive entries so finalised
    ({!Mvstore.Chain.advance_watermark_over}).  A step allocates nothing.
    It is the only evaluator of built-ins under the real runtime, with two
    callers: the plan's bind pass and {!par_eval_run}.  Both leave a taken
    node's folded [node_op] (its result), stamp its [retrieved_at_us]
    with the plan's time, and commit it through {!commit_folded}: the
    bind pass at once, {!par_commit} after the batch barrier. *)

type fold

val fold_start : unit -> fold
(** A fold that has finalised nothing. *)

val fold_publish : Funct.t Mvstore.Chain.t -> fold -> unit
(** Advance the chain's watermark over the stretch not yet published. *)

val fold_bind :
  Funct.t Mvstore.Chain.t -> fold -> idx:int -> now:int -> Funct.t ->
  Funct.pending -> int
(** [fold_bind chain f ~idx ~now record p]: the bind pass's step for the
    still-pending record [record] (state [p]) at chain index [idx], when
    every earlier plan node of its key took it.  The step takes the node
    when it is a plain built-in, every entry below [idx] is final, and
    its result packs in 60 bits; it then stamps its
    [retrieved_at_us] with [now] and returns the node's folded
    [node_op].  Otherwise it touches nothing and returns [plain_op p];
    the key's later nodes must not take the step. *)

val is_folded : int -> bool
(** Whether a [node_op] is a folded node's. *)

val commit_folded :
  t -> key:Mvstore.Key.t -> ver:int -> Funct.pending -> int -> unit
(** [commit_folded t ~key ~ver p op]: the commit of the node at [ver] of
    [key], pending as [p] until either caller folded it into [op]: its
    counters and [notify_final], from [op] alone (a folded record has no
    waiters, {!plain_op}). *)

val compute_node : t -> nodes -> int -> unit
(** Evaluate node [i] via [ensure_computing].  Idempotent: if the record
    turned final (or started computing) since the plan was built, this is
    a no-op — at-most-once is preserved either way. *)

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
    version-ascending nodes at that level, in order, on one worker) of the
    nodes the plan's bind pass did not fold ({!fold_bind}).  A level's
    runs have distinct keys and only read other keys' values finalised by
    earlier levels, so the worker side touches nothing but its own run's
    chain.  Workers evaluate built-ins only through the fold; a built-in
    it refuses (recipients, dependents, a read set, a value wider than 60
    bits, a pending record below) is left to the simulated dispatch, as
    under [--runtime sim].  A plan keeps one {!par_slot} per node,
    indexed by the node's position in the plan's key order, so a run's
    slots are contiguous: a user functor's claim, then its outcome.
    Every cross-cutting effect (pushes, dependent writes, waiters,
    metrics, interning) waits in the node's [node_op] or slot for
    {!par_commit} on the orchestrating domain after the batch barrier.
    Items the stager rejects, or whose evaluation could not complete
    chain-locally, fall back to the unchanged sequential dispatch path. *)

type par_slot

val par_slots : int -> par_slot array
(** [par_slots n]: [n] unclaimed slots, one per plan node. *)

val par_stage : t -> now:int -> par_slot array -> int -> nodes -> int -> unit
(** [par_stage t ~now slots k nodes i] claims and stages user functor
    node [i] in slot [k]: it leaves the slot unclaimed when the node is
    no installed user functor (a built-in, a Dep_marker, already
    final or computing) or must take the sequential path (missing
    handler, remote or still-pending reads).  A claim moves the record
    [Installed] → [Computing] and stamps [retrieved_at_us] with [now] if
    unset.  A node with a read set walks other keys' chains, so the
    orchestrating domain stages it, while workers are idle, before its
    level's batch. *)

val par_eval_run :
  t -> now:int -> par_slot array -> nodes -> int array -> pos:int -> len:int ->
  unit
(** Worker domain: evaluate one key run, the plan nodes
    [seg.(pos) .. seg.(pos + len - 1)] (one key's, version-ascending), in
    order, node [seg.(k)] in slot [k].  A plain built-in (non-zero
    [node_op]) takes the fold's step and, taken, gets its folded
    [node_op] as in the bind pass; any other built-in, and one the step
    refuses, is left to the dispatch.  A user functor without a read set
    is staged here (as {!par_stage}, touching only its own record); a
    staged one then gets chain-local work only: check that nothing
    below it is pending, run its handler, flip the record final, and
    record the outcome in its slot.  If a record below is pending the
    slot stays claimed and the record pending; an exception other than
    [Not_found] / [Invalid_argument] from a user handler propagates with
    the same effect and ends the run.  Built-ins allocate nothing per
    node. *)

type par_result =
  | Par_untouched  (** never claimed *)
  | Par_evaluated  (** evaluated on a worker; effects applied *)
  | Par_released  (** claimed but not evaluated; claim released *)

val par_commit : t -> par_slot array -> int -> nodes -> int -> par_result
(** [par_commit t slots k nodes i], main domain, after the batch barrier.
    A node the workers' fold took ({!is_folded} [node_op]) commits
    through {!commit_folded}, reading neither its slot nor its record.
    An evaluated user functor also sends its recipient pushes and
    dependent writes.  A claim left unevaluated is released ([Computing]
    → [Installed]) so the sequential dispatch re-evaluates it. *)

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
    [min before watermark], keeping the newest committed or deleted
    record at or below the horizon (reads skip an aborted one) as the
    base value for reads at or above it.  Reads strictly
    below the horizon may observe the key as absent — GC shortens the
    historical-read window.  Returns records reclaimed.  Safe at any
    time: only immutable (sub-watermark) history is touched. *)

val pending_count : t -> int
(** Number of records still pending across the partition (test helper;
    O(table size)). *)
