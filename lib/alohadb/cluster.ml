type options = {
  n_servers : int;
  config : Config.t;
  epoch : Epoch.Manager.config;
  seed : int;
  clock_skew_us : int;
  faults : Net.Faults.t option;
  obs : Obs.Ctl.t option;
}

let default_options =
  { n_servers = 8;
    config = Config.default;
    epoch = Epoch.Manager.default_config;
    seed = 42;
    clock_skew_us = 100;
    faults = None;
    obs = None }

type t = {
  sim : Sim.Engine.t;
  servers : Server.t array;
  em : Epoch.Manager.t;
  metrics : Sim.Metrics.t;
  registry : Functor_cc.Registry.t;
  partition_of : Mvstore.Key.t -> int;
  data : Message.rpc;
  control : Epoch.Protocol.rpc;
  real_pool : Runtime.Pool.t option;
      (* one shared worker-domain pool across the cluster's BEs: the
         simulation is single-threaded, so at most one server evaluates
         a plan at any moment and per-server pools would just multiply
         idle domains *)
  replicas : int;  (* effective k = min(config.replicas, n) *)
  route : Net.Route.t;
  repl_plane : Message.rpc;  (* the WAL-ship plane *)
}

(* Replication group of partition [p]: nodes [p .. p+k-1 mod n], so every
   node is the primary of its home partition and a follower of the k-1
   partitions preceding it — the load of followership spreads evenly.  At
   k = 1 it is just [p]. *)
let group_layout ~n ~k partition =
  List.init k (fun j -> Net.Address.of_int ((partition + j) mod n))

(* The failure monitor: reacts to backend crash/restart transitions with
   a detection delay (modelling a failure detector's timeout), re-checks
   liveness at verdict time (a backend that already restarted needs no
   failover — guards against spurious promotion), then drives promotion
   and group-membership bookkeeping.  It is deliberately a cluster-level
   oracle rather than a gossip protocol: the paper's contribution is the
   epoch/functor machinery, and the chaos battery needs a deterministic
   detector, not a probabilistic one. *)
(* Failure-detector delay: how long after a backend crash or restart the
   monitor waits before promoting a replica or re-joining a member. *)
let detect_us = 3_000

let install_monitor ~sim ~servers ~route ?ledger () =
  let addr i = Net.Address.of_int i in
  let live a = not (Server.be_down servers.(Net.Address.to_int a)) in
  let partitions_with_member i = Net.Route.groups_of route (addr i) in
  let handle_down i =
    if Server.be_down servers.(i) then begin
      (* The verdict instant — detect_us after the crash — is when the
         monitor DETECTS the failure; the ledger's incident analytics
         measure detect latency against the crash event. *)
      (match ledger with
      | Some l ->
          Obs.Ledger.note_event l ~kind:Obs.Ledger.Detect ~node:i
            ~t_us:(Sim.Engine.now sim) ()
      | None -> ());
      List.iter
        (fun p ->
          let primary = Net.Route.resolve route ~partition:p in
          if Net.Address.equal primary (addr i) then begin
            match
              Net.Route.find_successor route ~partition:p ~live
                ~avoid:(addr i)
            with
            | None ->
                (* the whole group is down: the partition is unavailable
                   until one of its replicas restarts *)
                ()
            | Some succ ->
                ignore (Net.Route.promote route ~partition:p ~to_:succ);
                let down =
                  List.filter
                    (fun a ->
                      (not (Net.Address.equal a succ)) && not (live a))
                    (Net.Route.members route ~partition:p)
                in
                Server.adopt_partition
                  servers.(Net.Address.to_int succ)
                  ~partition:p ~down
          end
          else if live primary then
            Server.note_member_down
              servers.(Net.Address.to_int primary)
              ~partition:p ~member:(addr i))
        (partitions_with_member i)
    end
  in
  let handle_up i =
    if not (Server.be_down servers.(i)) then
      List.iter
        (fun p ->
          let primary = Net.Route.resolve route ~partition:p in
          if Net.Address.equal primary (addr i) then
            (* A restarted primary kept its pre-crash liveness view of the
               group, which staled while it was down; re-sync it so the
               gating floor neither waits on a dead follower nor excludes
               a live one (a live-but-excluded follower could lag and
               then win a later promotion with missing entries). *)
            List.iter
              (fun m ->
                if not (Net.Address.equal m (addr i)) then
                  if live m then
                    Server.note_member_rejoin servers.(i) ~partition:p
                      ~member:m
                  else
                    Server.note_member_down servers.(i) ~partition:p
                      ~member:m)
              (Net.Route.members route ~partition:p)
          else if live primary then
            Server.note_member_rejoin
              servers.(Net.Address.to_int primary)
              ~partition:p ~member:(addr i))
        (partitions_with_member i)
  in
  Array.iteri
    (fun i srv ->
      Server.set_lifecycle_hooks srv
        ~on_crash:(fun () ->
          Sim.Engine.after sim detect_us (fun () -> handle_down i))
        ~on_restart:(fun () ->
          Sim.Engine.after sim detect_us (fun () -> handle_up i)))
    servers

let drop_stats t =
  let d = Net.Rpc.drop_stats t.data
  and c = Net.Rpc.drop_stats t.control
  and r = Net.Rpc.drop_stats t.repl_plane in
  { Net.Network.injected =
      d.Net.Network.injected + c.Net.Network.injected
      + r.Net.Network.injected;
    partitioned = d.partitioned + c.partitioned + r.partitioned;
    crashed = d.crashed + c.crashed + r.crashed;
    unregistered = d.unregistered + c.unregistered + r.unregistered }

let create ?registry options =
  if options.n_servers <= 0 then invalid_arg "Cluster.create: n_servers";
  let registry =
    match registry with
    | Some r -> r
    | None -> Functor_cc.Registry.with_builtins ()
  in
  let sim = Sim.Engine.create () in
  let rng = Sim.Rng.create options.seed in
  let metrics = Sim.Metrics.create () in
  (* Both planes share one physical network, so one fault oracle covers
     them (a partition window cuts epoch control traffic too). *)
  let data : Message.rpc =
    Net.Rpc.create sim (Sim.Rng.split rng) ~latency:Net.Latency.lan
      ?faults:options.faults ()
  in
  let control : Epoch.Protocol.rpc =
    Net.Rpc.create sim (Sim.Rng.split rng) ~latency:Net.Latency.lan
      ?faults:options.faults ()
  in
  let n = options.n_servers in
  (* Effective replication degree, clamped to the cluster size.  A
     cluster with faults is hardened, and a hardened or replicated one is
     durable (see Config). *)
  let k = min (max 1 options.config.Config.replicas) n in
  let hardened = Option.is_some options.faults in
  let durable = hardened || k > 1 in
  let route = Net.Route.create ~partitions:n in
  for p = 0 to n - 1 do
    Net.Route.register route ~partition:p (group_layout ~n ~k p)
  done;
  let part = Net.Partitioner.by_prefix_int ~partitions:n in
  (* Partition routing is memoized per interned key: the hash (or prefix
     parse) of a key's name runs once per cluster, after which routing is
     a stamp compare on the key record.  The stamp keeps slots from
     different clusters (sharing the process-wide intern table) apart. *)
  let stamp = Mvstore.Key.new_stamp () in
  let partition_of key =
    Mvstore.Key.memo_int key ~stamp ~f:(Net.Partitioner.partition_of part)
  in
  (* crash-aware: resolves to the partition's current primary, so
     frontend retries chase a promoted replica *)
  let addr_of_partition p = Net.Route.resolve route ~partition:p in
  let em_addr = Net.Address.of_int n in
  let clocks =
    Array.init n (fun _ ->
        let skew = options.clock_skew_us in
        let offset_us =
          if skew = 0 then 0 else Sim.Rng.uniform_int rng ~lo:(-skew) ~hi:skew
        in
        Clocksync.Node_clock.create sim ~offset_us ())
  in
  (* The ship plane is a separate rpc instance whose latency stream is
     split after every other RNG draw (the clock offsets included), so
     ship traffic cannot perturb the data plane's stream and adding the
     plane moved no other stream. *)
  let repl_plane : Message.rpc =
    Net.Rpc.create sim (Sim.Rng.split rng) ~latency:Net.Latency.lan
      ?faults:options.faults ()
  in
  let fabric = { Replica.plane = repl_plane; route } in
  let config = options.config in
  let real_pool =
    match config.Config.runtime_mode with
    | Config.Sim -> None
    | Config.Real ->
        Some (Runtime.Pool.create ~domains:(max 1 config.Config.domains))
  in
  let servers =
    Array.init n (fun i ->
        Server.create ~sim ~data ~control ~fabric
          ~addr:(Net.Address.of_int i) ~node_id:i ~em:em_addr
          ~clock:clocks.(i) ~partition_of ~addr_of_partition ~my_partition:i
          ~registry ~config ~durable ~hardened ~metrics ?obs:options.obs
          ?real_pool ())
  in
  let em =
    Epoch.Manager.create ~rpc:control ~addr:em_addr
      ~fes:(List.init n Net.Address.of_int)
      ~clock:(Clocksync.Node_clock.perfect sim)
      ~config:options.epoch ~metrics ()
  in
  (* At k = 1 a crashed primary has no successor, so no monitor. *)
  if k > 1 then
    install_monitor ~sim ~servers ~route
      ?ledger:(Option.bind options.obs Obs.Ctl.ledger)
      ();
  let t =
    { sim; servers; em; metrics; registry; partition_of; data; control;
      real_pool; replicas = k; route; repl_plane }
  in
  (match options.obs with
  | None -> ()
  | Some ctl ->
      (* Stamp the ledger's meta line: the stretch ratio and watermark-lag
         anomaly thresholds are measured against the configured epoch
         duration, and the doctor's failover invariants only apply when
         replicas > 1. *)
      (match Obs.Ctl.ledger ctl with
      | Some l ->
          Obs.Ledger.set_meta l
            ~cfg_epoch_us:options.epoch.Epoch.Manager.duration_us ~nodes:n
            ~replicas:k
      | None -> ());
      (* Fault correlation: every chaos verdict on either plane opens the
         tagging window and leaves a marker event. *)
      let hook ~now ~dst ~kind =
        Obs.Ctl.note_fault ctl ~now ~node:(Net.Address.to_int dst) ~kind
      in
      Net.Rpc.set_fault_hook data hook;
      Net.Rpc.set_fault_hook control hook;
      Net.Rpc.set_fault_hook repl_plane hook;
      (* Gauge probes: cluster-wide sums published before each snapshot,
         plus the cumulative drop counter of every plane (the sampler
         records its level; consumers diff consecutive points for
         deltas). *)
      let g = Obs.Ctl.gauges ctl in
      Obs.Gauges.bind_metrics g metrics;
      Obs.Gauges.add_probe g (fun () ->
          let depth = ref 0
          and inflight = ref 0
          and lag = ref 0
          and wal_b = ref 0
          and repl_lag = ref 0 in
          Array.iter
            (fun s ->
              depth := !depth + Server.compute_queue_depth s;
              inflight := !inflight + Server.inflight_functors s;
              let l = Server.value_watermark_lag_us s in
              if l > !lag then lag := l;
              wal_b := !wal_b + Server.wal_pending_bytes s;
              repl_lag := !repl_lag + Server.replication_lag s)
            servers;
          Sim.Metrics.set_gauge metrics "gauge.compute_queue_depth"
            (float_of_int !depth);
          Sim.Metrics.set_gauge metrics "gauge.inflight_functors"
            (float_of_int !inflight);
          Sim.Metrics.set_gauge metrics "gauge.watermark_lag_us"
            (float_of_int !lag);
          Sim.Metrics.set_gauge metrics "gauge.wal_pending_bytes"
            (float_of_int !wal_b);
          if k > 1 then
            Sim.Metrics.set_gauge metrics "gauge.repl_lag"
              (float_of_int !repl_lag);
          Sim.Metrics.set_gauge metrics "gauge.net_drops"
            (float_of_int (Net.Network.total_drops (drop_stats t)))));
  t

let start t = Epoch.Manager.start t.em

let shutdown t =
  match t.real_pool with
  | None -> ()
  | Some p -> Runtime.Pool.shutdown p

let set_trace t f =
  Net.Rpc.set_trace t.data f;
  Net.Rpc.set_trace t.control f;
  Net.Rpc.set_trace t.repl_plane f

let sim t = t.sim
let metrics t = t.metrics
let n_servers t = Array.length t.servers
let server t i = t.servers.(i)
let registry t = t.registry
let partition_of t key = t.partition_of (Mvstore.Key.intern key)
let replicas t = t.replicas

let primary_server t ~partition =
  t.servers.(Net.Address.to_int (Net.Route.resolve t.route ~partition))

let group_members t ~partition =
  List.map Net.Address.to_int (Net.Route.members t.route ~partition)

let load t ~key value =
  Server.load_initial
    t.servers.(t.partition_of (Mvstore.Key.intern key))
    ~key value

let submit t ~fe req k = Server.submit t.servers.(fe) req k

let run_for t us =
  Sim.Engine.run ~until:(Sim.Engine.now t.sim + us) t.sim
