(** Per-epoch dependency-graph planner: the functor-computing phase, the
    paper's asynchronous processor pool (§IV-D).

    At epoch close the planner takes the epoch's buffered (key, version)
    items, binds each still-pending record to a plan node (an index into
    the {!Compute_engine.nodes} arrays), and builds a dependency graph
    over the plan:

    - {e intra-key edges}: a functor depends on the plan's next-lower
      version of its own key (built-ins implicitly read their own key at
      version - 1; for user functors the edge is conservative — their
      records can finalise out of version order, but the key's watermark
      publishes in version order, so the edge keeps strata an upper
      bound on the evaluation waves);
    - {e read→write edges}: a user functor reading key [k] at version
      [v - 1] depends on the plan node writing [k] at the largest version
      <= [v - 1], when that producer is local and in the plan — its own
      key included, when the read set names it.

    Reads are always of strictly lower versions, so edges strictly
    increase version and the graph is a DAG.  One topological pass gives
    every node a {e depth} (its Kahn stratum: the strata count and
    critical-path length are statistics) and, under the real runtime, a
    {e level}, the longest path with intra-key edges weighing 0 and
    read→write edges 1.  A plan without read→write edges needs no pass:
    every node is level 0 and its depth is its place in its key's
    version order.  The planner then dispatches one worker-pool job per
    item {e in the original install order}, all as one
    {!Sim.Worker_pool.submit_run}, each job evaluating its node directly
    through {!Compute_engine.compute_node}: no table probe and no
    watermark-to-version chain rescan per evaluation.  The run holds a
    node only until the node's job fires.

    For read-set keys owned by another partition (and not already covered
    by a §IV-B pushed read), the planner emits a {e plan subscription}
    through [send_plan_sub]: the owner evaluates the producing functor and
    pushes the value back, landing in the same per-record push buffer the
    §IV-B optimisation uses.  The consumer's gather still races its own
    remote read against the push, so a lost subscription or push costs a
    round trip but can never wedge the plan.

    On-demand reads may beat the planner to any node; the engine's
    at-most-once discipline ([Installed] → [Computing]) makes the race
    benign in either direction. *)

type t

type stats = {
  nodes : int;  (** prepared (still-pending) functors in the plan *)
  edges : int;  (** dependency edges (intra-key + read→write) *)
  strata : int;
      (** Kahn strata: independent waves of evaluation; the longest
          dependency chain has [strata - 1] edges *)
  subs_sent : int;  (** cross-partition plan subscriptions issued *)
}

val create :
  engine:Compute_engine.t ->
  pool:Sim.Worker_pool.t ->
  ?real:Runtime.Pool.t ->
  dispatch_cost_us:int ->
  metrics:Sim.Metrics.t ->
  ?is_local:(Mvstore.Key.t -> bool) ->
  ?send_plan_sub:
    (key:Mvstore.Key.t -> version:int -> dst_key:Mvstore.Key.t ->
     dst_version:int -> unit) ->
  ?now:(unit -> int) ->
  ?on_dispatch:(key:Mvstore.Key.t -> version:int -> unit) ->
  ?on_stratum:(size:int -> unit) ->
  ?on_stratum_done:(size:int -> workers:int array -> unit) ->
  ?on_evaluated:(elapsed_us:int -> unit) ->
  unit -> t
(** [is_local] defaults to treating every key as local (single-partition
    and unit-test setups); without [send_plan_sub] no subscription is issued
    (or counted), and remote read-set values arrive through gather's
    ordinary push/remote-read race.  [now] (simulated time) feeds the
    plan-evaluation histogram; [on_dispatch] observes each node leaving
    the plan for the pool (lifecycle tracing); [on_evaluated] fires once
    when the last node of a plan finalises.

    [real] switches on the [--runtime real] backend: the plan is
    evaluated eagerly, one {!Runtime.Pool.run_batch} per level, before the
    simulated dispatch runs.  Each task of a batch is one key's
    version-ascending run of nodes at that level, a piece of the key's
    segment in the plan's counting sort by key, evaluated in order on one
    worker, so an epoch of built-ins alone is a single batch whose runs
    are the key segments.  The plan's bind pass folds each key's plain
    built-ins first, in install order, and commits each node it folds at
    once ({!Compute_engine.commit_folded}); such a node gets no plan
    entry, so an epoch of plain built-ins alone runs no batch and
    allocates nothing per node.  The plan keeps the other nodes and their evaluation state
    flat: parallel arrays of records and versions
    ({!Compute_engine.nodes}), made at the first such node, and one
    {!Compute_engine.par_slot} per node in key order (claim, then
    outcome).  User functors with read sets (the readers the plan build
    collects) are staged on the calling domain before their level's
    batch; a level without readers stages nothing.  The calling
    domain commits level by level, runs in plan order, so commit order
    does not depend on the domain count.  Evaluated records then no-op
    through {!Compute_engine.compute_node}; when no node is left
    pending, the dispatch is a {!Sim.Worker_pool.submit_silent} run of
    the same count and cost, one completion per worker lane on an idle
    pool instead of one event per item.  [on_stratum] observes each
    level's batch leaving for the domain pool ([size] counts its nodes);
    [on_stratum_done] fires after the batch barrier with the per-worker
    completed-chunk deltas across the batch.  The [plan.real_strata]
    counter counts these level batches. *)

val run : t -> items:Processor.item list -> stats
(** Build and dispatch one plan over [items] (an epoch's drained buffer,
    in install order).  Already-final items are skipped.  Records
    [plan.*] metrics; returns the plan's statistics. *)
