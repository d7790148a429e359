(* The chaos driver: run a seeded fault {!Schedule} against one engine
   through the generic kernel client loop, replay it to prove the trace
   is a pure function of the seed, run a crash-free reference, and check
   the invariants (see DESIGN.md, "Fault model"). *)

module type TARGET = sig
  include Kernel.Intf.ENGINE

  val transport : Net.Faults.transport
  (** How this engine's protocol reads the fault oracle: [Lossy] only for
      engines hardened against message loss. *)

  val set_trace :
    cluster -> (src:Net.Address.t -> dst:Net.Address.t -> unit) -> unit

  val drop_stats : cluster -> Net.Network.drop_stats

  val apply : cluster -> faults:Net.Faults.t -> Schedule.event -> unit
  (** Realize one schedule event: install it on the oracle, or (for
      crash/skew on engines with native support) schedule the state
      change on the cluster's simulation. *)

  val probes :
    cluster ->
    keys:string list ->
    exclude_nodes:int list ->
    (string * (unit -> int)) list
  (** Named monotone counters sampled during the run (watermarks,
      committed count).  Probes living on [exclude_nodes] are omitted —
      a recovering node legitimately rebuilds below its pre-crash
      watermark. *)
end

(* ---- targets ------------------------------------------------------------- *)

(* Crash and skew for engines without a native recovery / clock model:
   a crash is a stall window (the reliable transport buffers traffic
   until restart), skew is a pure-delay edict on the node's sends. *)
let reliable_apply faults = function
  | Schedule.Edict e -> Net.Faults.install faults [ e ]
  | Schedule.Partition { group; from_us; until_us } ->
      Net.Faults.partition faults
        ~group:(List.map Net.Address.of_int group)
        ~from_us ~until_us
  | Schedule.Crash { node; at_us; restart_at_us } ->
      Net.Faults.partition faults
        ~group:[ Net.Address.of_int node ]
        ~from_us:at_us ~until_us:restart_at_us
  | Schedule.Skew { node; at_us; skew_us } ->
      Net.Faults.install faults
        [ Net.Faults.edict
            ~src:(Net.Address.of_int node)
            ~extra_max_us:(abs skew_us) Net.Faults.Delay ~p:1.0 ~from_us:at_us
            ~until_us:(at_us + 5_000) ]

let committed_probe (type c) (module E : Kernel.Intf.ENGINE with type cluster = c)
    (cluster : c) =
  let m = E.metrics cluster in
  (E.committed_key, fun () -> Sim.Metrics.get m E.committed_key)

module Aloha_target = struct
  include Alohadb.Engine

  let transport = Net.Faults.Lossy

  let apply c ~faults = function
    | Schedule.Edict e -> Net.Faults.install faults [ e ]
    | Schedule.Partition { group; from_us; until_us } ->
        Net.Faults.partition faults
          ~group:(List.map Net.Address.of_int group)
          ~from_us ~until_us
    | Schedule.Crash { node; at_us; restart_at_us } ->
        let sim = Alohadb.Cluster.sim c in
        let srv = Alohadb.Cluster.server c node in
        Sim.Engine.schedule sim ~at:at_us (fun () ->
            Alohadb.Server.crash_be srv);
        Sim.Engine.schedule sim ~at:restart_at_us (fun () ->
            Alohadb.Server.restart_be srv)
    | Schedule.Skew { node; at_us; skew_us } ->
        let sim = Alohadb.Cluster.sim c in
        let srv = Alohadb.Cluster.server c node in
        Sim.Engine.schedule sim ~at:at_us (fun () ->
            Clocksync.Node_clock.skew_by (Alohadb.Server.clock srv) ~us:skew_us)

  let probes c ~keys ~exclude_nodes =
    let watermarks =
      List.filter_map
        (fun k ->
          let partition = Alohadb.Cluster.partition_of c k in
          (* Group-aware exclusion: a partition's probe is unreliable
             while ANY member of its replication group crashes during the
             run — its primary may be a promoted replica mid-replay, or
             (after the primary's rejoin) the home server rebuilding.
             Unreplicated groups are the singleton [partition], keeping
             the pre-replication behaviour exactly. *)
          let group = Alohadb.Cluster.group_members c ~partition in
          if List.exists (fun m -> List.mem m exclude_nodes) group then None
          else
            let key = Mvstore.Key.intern k in
            Some
              ( "watermark:" ^ k,
                fun () ->
                  (* through the route: reads the current primary *)
                  Functor_cc.Compute_engine.watermark
                    (Alohadb.Server.engine
                       (Alohadb.Cluster.primary_server c ~partition))
                    ~key ))
        keys
    in
    committed_probe (module Alohadb.Engine) c :: watermarks
end

(* Calvin and 2PL: reliable links, the committed counter the one probe. *)
module Baseline_target (E : Calvin.Deployment.S) = struct
  include E

  let transport = Net.Faults.Reliable
  let apply _c ~faults ev = reliable_apply faults ev
  let probes c ~keys:_ ~exclude_nodes:_ = [ committed_probe (module E) c ]
end

type packed = Target : (module TARGET with type cluster = 'c) -> packed

let targets =
  [ ("aloha", Target (module Aloha_target));
    ("calvin", Target (module Baseline_target (Calvin.Engine)));
    ("twopl", Target (module Baseline_target (Twopl.Engine))) ]

let target_of_name name = List.assoc_opt name targets

(* ---- workload ------------------------------------------------------------ *)

(* The same YCSB-style increment history the cross-engine test uses:
   commutative adds over a small shared keyspace, so the final state has
   a closed-form oracle no matter how the engine interleaved them. *)
type workload = {
  keys : string list;
  batch : ((int * int) * int) list;
  arrivals : (int * int) list;
  oracle : int array;
}

let make_workload ~seed ~n_servers =
  let n_keys = 6 * n_servers in
  let keys =
    List.init n_keys (fun i -> Printf.sprintf "c:%d:%d" (i mod n_servers) i)
  in
  (* Decorrelate from the schedule generator, which consumes the raw
     seed. *)
  let rng = Sim.Rng.create ((seed * 1_000_003) lxor 0x5eed) in
  let batch =
    List.init 60 (fun _ ->
        let k1 = Sim.Rng.int rng n_keys in
        let k2 = Sim.Rng.int rng n_keys in
        let delta = 1 + Sim.Rng.int rng 9 in
        ((k1, k2), delta))
  in
  let arrivals =
    List.mapi (fun i _ -> (1_000 + (i * 400), i mod n_servers)) batch
  in
  let oracle = Array.make n_keys 0 in
  List.iter
    (fun ((k1, k2), delta) ->
      oracle.(k1) <- oracle.(k1) + delta;
      if k2 <> k1 then oracle.(k2) <- oracle.(k2) + delta)
    batch;
  { keys; batch; arrivals; oracle }

let txn_of w (k1, k2) delta =
  let ks =
    List.sort_uniq compare [ List.nth w.keys k1; List.nth w.keys k2 ]
  in
  Kernel.Txn.make (List.map (fun k -> (k, Kernel.Txn.Add delta)) ks)

(* ---- one run ------------------------------------------------------------- *)

let horizon_us = 1_000_000
let probe_period_us = 5_000

type run_out = {
  trace : Trace.t;
  result : Kernel.Result.t;
  state : int array;  (** final committed value per workload key *)
  replies : int;
  probe_regressions : string list;
  committed_series : (int * int) list;
      (** (t_us, committed counter) sampled every probe period — the
          availability-under-chaos time series *)
  metric : string -> int;
  drops : Net.Network.drop_stats;
}

let exec (type c) (module T : TARGET with type cluster = c)
    ?replicas ?fastpath ?obs ~(schedule : Schedule.t) ~faulted () =
  let n = schedule.Schedule.n_servers in
  let w = make_workload ~seed:schedule.Schedule.seed ~n_servers:n in
  let faults =
    Net.Faults.create ~transport:T.transport ~seed:schedule.Schedule.seed ()
  in
  let params =
    Kernel.Params.make
      ?faults:(if faulted then Some faults else None)
      ?replicas ?fastpath ?obs ~n_servers:n ()
  in
  let cluster = T.create ~seed:schedule.Schedule.seed params in
  List.iter (fun k -> T.load cluster k (Functor_cc.Value.int 0)) w.keys;
  T.start cluster;
  if faulted then List.iter (T.apply cluster ~faults) schedule.Schedule.events;
  let sim = T.sim cluster in
  let trace = Trace.create () in
  T.set_trace cluster (fun ~src ~dst ->
      Trace.note trace ~now:(Sim.Engine.now sim) ~src ~dst);
  (* Monotonicity probes, sampled throughout the run.  Probes on a
     crashing node are excluded up front: recovery rebuilds from the
     durable log, legitimately below the pre-crash in-memory
     watermark. *)
  let crashed_nodes =
    if not faulted then []
    else
      List.filter_map
        (function Schedule.Crash { node; _ } -> Some node | _ -> None)
        schedule.Schedule.events
  in
  let regressions = ref [] in
  let probes =
    Array.of_list (T.probes cluster ~keys:w.keys ~exclude_nodes:crashed_nodes)
  in
  let metrics = T.metrics cluster in
  let series = ref [] in
  let last = Array.map (fun _ -> min_int) probes in
  let rec sample () =
    Array.iteri
      (fun i (name, f) ->
        let v = f () in
        if v < last.(i) then
          regressions :=
            Printf.sprintf "%s regressed %d -> %d at t=%d" name last.(i) v
              (Sim.Engine.now sim)
            :: !regressions;
        last.(i) <- v)
      probes;
    series :=
      (Sim.Engine.now sim, Sim.Metrics.get metrics T.committed_key)
      :: !series;
    if Sim.Engine.now sim + probe_period_us < horizon_us then
      Sim.Engine.after sim probe_period_us sample
  in
  Sim.Engine.after sim probe_period_us sample;
  let replies = ref 0 in
  let remaining = ref w.batch in
  let gen ~fe:_ =
    match !remaining with
    | [] -> invalid_arg "chaos: scripted generator exhausted"
    | (ks, delta) :: tl ->
        remaining := tl;
        txn_of w ks delta
  in
  let result =
    Kernel.Run.run
      (module T)
      ~cluster ~gen
      ~arrival:(Kernel.Arrivals.Scripted { arrivals = w.arrivals })
      ~on_reply:(fun ~fe:_ _ -> incr replies)
      ?obs ~warmup_us:0 ~measure_us:horizon_us ~seed:schedule.Schedule.seed
      ()
  in
  let state =
    Array.of_list
      (List.map
         (fun k ->
           match T.read_committed cluster k with
           | Some v -> Functor_cc.Value.to_int v
           | None -> 0)
         w.keys)
  in
  let m = T.metrics cluster in
  ( w,
    { trace;
      result;
      state;
      replies = !replies;
      probe_regressions = List.rev !regressions;
      committed_series = List.rev !series;
      metric = (fun key -> Sim.Metrics.get m key);
      drops = T.drop_stats cluster } )

(* ---- invariants ---------------------------------------------------------- *)

type report = {
  seed : int;
  engine : string;
  replicas : int;
  fastpath : bool;
  trace_hash : string;
  trace_events : int;
  committed : int;
  submitted : int;
  availability : (int * int) list;
  drops : int;
  drop_detail : Net.Network.drop_stats;
  timeline : string list;
  violations : string list;
}

let passed r = r.violations = []

let check_state ~label ~(expected : int array) ~(actual : int array)
    ~(keys : string list) acc =
  let acc = ref acc in
  List.iteri
    (fun i k ->
      if actual.(i) <> expected.(i) then
        acc :=
          Printf.sprintf "%s: key %s = %d, expected %d" label k actual.(i)
            expected.(i)
          :: !acc)
    keys;
  !acc

let run_schedule ?replicas ?fastpath ?obs (Target (module T))
    ~(schedule : Schedule.t) =
  (* Only the faulted run carries the observability handle: the replay
     and reference runs exist to check invariants, and the ledger (when
     one is attached) should describe the run the timeline is about. *)
  let w, faulted =
    exec (module T) ?replicas ?fastpath ?obs ~schedule ~faulted:true
      ()
  in
  let _, replay =
    exec (module T) ?replicas ?fastpath ~schedule ~faulted:true ()
  in
  (* The reference runs at the same replication degree: the survival
     invariant is "a replicated faulted run equals a replicated fault-free
     run", and replication itself is proven behaviour-neutral against
     k = 1 by the differential test. *)
  let _, reference =
    exec (module T) ?replicas ?fastpath ~schedule ~faulted:false ()
  in
  let submitted = List.length w.batch in
  let v = ref [] in
  (* Determinism: the replay's trace must be byte-identical. *)
  if not (Trace.equal faulted.trace replay.trace) then
    v :=
      Printf.sprintf "trace hash not reproducible: %s (%d events) vs %s (%d)"
        (Trace.to_hex faulted.trace)
        (Trace.events faulted.trace)
        (Trace.to_hex replay.trace)
        (Trace.events replay.trace)
      :: !v;
  (* Completion soundness: every submission eventually replied. *)
  if faulted.replies <> submitted then
    v :=
      Printf.sprintf "completion: %d replies for %d submissions"
        faulted.replies submitted
      :: !v;
  (* Monotone probes (watermarks / committed counters). *)
  v := List.rev_append faulted.probe_regressions !v;
  (* Committed state vs the oracle, and vs the crash-free reference run.
     2PL may abandon transactions under induced lock-wait timeouts; when
     it gave none up the exact oracle applies, otherwise each key must
     stay at or below it (a lost-then-reapplied write would overshoot). *)
  let given_up =
    match List.assoc_opt "gave up" faulted.result.Kernel.Result.aborts with
    | Some n -> n
    | None -> 0
  in
  if given_up = 0 then begin
    v :=
      check_state ~label:"state vs oracle" ~expected:w.oracle
        ~actual:faulted.state ~keys:w.keys !v;
    v :=
      check_state ~label:"state vs crash-free reference"
        ~expected:reference.state ~actual:faulted.state ~keys:w.keys !v;
    if faulted.result.Kernel.Result.committed <> submitted then
      v :=
        Printf.sprintf "committed %d of %d with no give-ups"
          faulted.result.Kernel.Result.committed submitted
        :: !v
  end
  else
    List.iteri
      (fun i k ->
        if faulted.state.(i) > w.oracle.(i) then
          v :=
            Printf.sprintf "state above oracle: key %s = %d > %d" k
              faulted.state.(i) w.oracle.(i)
            :: !v)
      w.keys;
  (* At-most-once evaluation: in a crash-free run every installed functor
     is computed at most once (recovery legitimately recomputes). *)
  if T.name = "aloha" && not (Schedule.has_crash schedule) then begin
    let computed = faulted.metric "fcc.computed" in
    let installed = faulted.metric "aloha.functors_installed" in
    if computed > installed then
      v :=
        Printf.sprintf "at-most-once: %d computations for %d installs"
          computed installed
        :: !v
  end;
  { seed = schedule.Schedule.seed;
    engine = T.name;
    replicas = (match replicas with Some k -> max 1 k | None -> 1);
    fastpath = (match fastpath with Some b -> b | None -> false);
    trace_hash = Trace.to_hex faulted.trace;
    trace_events = Trace.events faulted.trace;
    committed = faulted.result.Kernel.Result.committed;
    submitted;
    availability = faulted.committed_series;
    drops = Net.Network.total_drops faulted.drops;
    drop_detail = faulted.drops;
    timeline =
      (match obs with
      | Some ctl -> (
          match Obs.Ctl.ledger ctl with
          | Some l -> Obs.Ledger.to_lines l
          | None -> [])
      | None -> []);
    violations = List.rev !v }

let run_seed ?replicas ?fastpath ?obs t ~seed ~n_servers =
  let schedule =
    (* Replicated battery: crash every backend once (staggered); the
       generic mixed schedule otherwise. *)
    match replicas with
    | Some k when k > 1 -> Schedule.generate_replicated ~seed ~n_servers
    | Some _ | None -> Schedule.generate ~seed ~n_servers
  in
  run_schedule ?replicas ?fastpath ?obs t ~schedule

let trace_hash_of ?replicas ?fastpath (Target (module T))
    ~(schedule : Schedule.t) =
  let _, out =
    exec (module T) ?replicas ?fastpath ~schedule ~faulted:true ()
  in
  Trace.to_hex out.trace
