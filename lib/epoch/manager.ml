type config = { duration_us : int; lead_us : int }

let default_config = { duration_us = 25_000; lead_us = 500 }

type t = {
  rpc : Protocol.rpc;
  addr : Net.Address.t;
  fes : Net.Address.t list;
  clock : Clocksync.Node_clock.t;
  lead_us : int;
  metrics : Sim.Metrics.t;
  sim : Sim.Engine.t;
  core : Cores.Barrier.t;
}

let create ~rpc ~addr ~fes ~clock ~(config : config) ~metrics () =
  { rpc; addr; fes; clock; lead_us = config.lead_us; metrics;
    sim = Net.Rpc.engine rpc;
    core =
      Cores.Barrier.create
        ~fes:(List.map Net.Address.to_int fes)
        ~duration_us:config.duration_us }

let current_epoch t = Cores.Barrier.current_epoch t.core
let epochs_closed t = Cores.Barrier.epochs_closed t.core
let send t fe msg = Net.Rpc.send t.rpc ~src:t.addr ~dst:fe msg
let local t = Clocksync.Node_clock.now t.clock
let incr t name = Sim.Metrics.incr t.metrics name

let rec perform t = function
  | Cores.Barrier.Grant { epoch; lo; hi; next_duration } ->
      incr t "em.grants";
      List.iter
        (fun fe -> send t fe (Protocol.Grant { epoch; lo; hi; next_duration }))
        t.fes
  | Revoke { epoch; dsts; retry } ->
      incr t (if retry then "em.revoke_retries" else "em.revokes");
      List.iter
        (fun fe -> send t (Net.Address.of_int fe) (Protocol.Revoke { epoch }))
        dsts
  | Wake_after { epoch; delay } ->
      Sim.Engine.after t.sim delay (fun () ->
          List.iter (perform t)
            (Cores.Barrier.wake t.core ~epoch ~now:(Sim.Engine.now t.sim)))
  | Closed { epoch = _; switch_us } ->
      Sim.Metrics.record_latency t.metrics "em.switch_us" switch_us;
      incr t "em.epochs_closed"
  | Stale_ack -> incr t "em.stale_acks"

let start t =
  Net.Rpc.serve_oneway t.rpc t.addr (fun ~src msg ->
      match msg with
      | Protocol.Revoke_ack { epoch } ->
          List.iter (perform t)
            (Cores.Barrier.ack t.core ~src:(Net.Address.to_int src) ~epoch
               ~now:(Sim.Engine.now t.sim) ~local:(local t))
      | Protocol.Grant _ | Protocol.Revoke _ -> ());
  List.iter (perform t)
    (Cores.Barrier.start t.core ~local:(local t) ~lead_us:t.lead_us)
