type options = {
  n_servers : int;
  epoch_us : int;
  latency : Net.Latency.t;
  partitioner : [ `Hash | `Prefix ];
  seed : int;
  faults : Net.Faults.t option;
  obs : Obs.Ctl.t option;
}

let default_options =
  { n_servers = 8;
    epoch_us = Config.default_epoch_us;
    latency = Net.Latency.uniform ~base:80 ~jitter:40;
    partitioner = `Hash;
    seed = 42;
    faults = None;
    obs = None }

type t = {
  sim : Sim.Engine.t;
  servers : Server.t array;
  metrics : Sim.Metrics.t;
  partition_of : string -> int;
  rpc : Message.rpc;
}

let create ?registry options =
  if options.n_servers <= 0 then invalid_arg "Calvin.Cluster: n_servers";
  let registry =
    match registry with Some r -> r | None -> Ctxn.with_builtins ()
  in
  let sim = Sim.Engine.create () in
  let rng = Sim.Rng.create options.seed in
  let metrics = Sim.Metrics.create () in
  let rpc : Message.rpc =
    Net.Rpc.create sim (Sim.Rng.split rng) ~latency:options.latency
      ?faults:options.faults ()
  in
  let n = options.n_servers in
  let part =
    match options.partitioner with
    | `Hash -> Net.Partitioner.hash ~partitions:n
    | `Prefix -> Net.Partitioner.by_prefix_int ~partitions:n
  in
  let partition_of key = Net.Partitioner.partition_of part key in
  let addr_of_partition i = Net.Address.of_int i in
  let servers =
    Array.init n (fun i ->
        Server.create ~sim ~rpc ~addr:(Net.Address.of_int i) ~node_id:i
          ~n_servers:n ~partition_of ~addr_of_partition ~registry
          ~epoch_us:options.epoch_us ~metrics ?obs:options.obs ())
  in
  (match options.obs with
  | None -> ()
  | Some ctl ->
      Net.Rpc.set_fault_hook rpc (fun ~now ~dst ~kind ->
          Obs.Ctl.note_fault ctl ~now ~node:(Net.Address.to_int dst) ~kind);
      let g = Obs.Ctl.gauges ctl in
      Obs.Gauges.bind_metrics g metrics;
      Obs.Gauges.add_probe g (fun () ->
          let lockq = ref 0 and inflight = ref 0 in
          Array.iter
            (fun s ->
              lockq := !lockq + Server.lock_queue_depth s;
              inflight := !inflight + Server.inflight_count s)
            servers;
          Sim.Metrics.set_gauge metrics "gauge.lock_queue_depth"
            (float_of_int !lockq);
          Sim.Metrics.set_gauge metrics "gauge.inflight_txns"
            (float_of_int !inflight);
          let d = Net.Rpc.drop_stats rpc in
          Sim.Metrics.set_gauge metrics "gauge.net_drops"
            (float_of_int
               (d.Net.Network.injected + d.partitioned + d.crashed
              + d.unregistered))));
  { sim; servers; metrics; partition_of; rpc }

let start t = Array.iter Server.start t.servers
let set_trace t f = Net.Rpc.set_trace t.rpc f
let drop_stats t = Net.Rpc.drop_stats t.rpc

let sim t = t.sim
let metrics t = t.metrics
let n_servers t = Array.length t.servers
let server t i = t.servers.(i)
let partition_of t key = t.partition_of key

let load t ~key value =
  Server.load_initial t.servers.(t.partition_of key) ~key value

let submit ?k t ~fe txn = Server.submit ?k t.servers.(fe) txn

let run_for t us = Sim.Engine.run ~until:(Sim.Engine.now t.sim + us) t.sim
