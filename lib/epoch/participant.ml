type t = {
  rpc : Protocol.rpc;
  addr : Net.Address.t;
  em : Net.Address.t;
  clock : Clocksync.Node_clock.t;
  metrics : Sim.Metrics.t;
  core : Cores.Auth.t;
  mutable observers : (unit -> unit) list;
}

let create ~rpc ~addr ~em ~clock ~straggler_opt ~metrics () =
  { rpc; addr; em; clock; metrics; core = Cores.Auth.create ~straggler_opt;
    observers = [] }

let send_ack t epoch =
  Sim.Metrics.incr t.metrics "fe.revoke_acks";
  Net.Rpc.send t.rpc ~src:t.addr ~dst:t.em (Protocol.Revoke_ack { epoch })

let serve t ~on_open ~on_closed =
  let perform = function
    | Cores.Auth.Ack epoch -> send_ack t epoch
    | Closed epoch -> on_closed ~epoch
    | Opened { epoch; lo; hi } -> on_open ~epoch ~lo ~hi
    | Changed -> List.iter (fun f -> f ()) t.observers
  in
  Net.Rpc.serve_oneway t.rpc t.addr (fun ~src:_ msg ->
      List.iter perform
        (match msg with
        | Protocol.Grant { epoch; lo; hi; next_duration } ->
            Cores.Auth.grant t.core ~epoch ~lo ~hi ~next_duration
        | Protocol.Revoke { epoch } -> Cores.Auth.revoke t.core ~epoch
        | Protocol.Revoke_ack _ -> []))

let window t =
  Cores.Auth.window t.core ~now:(Clocksync.Node_clock.now t.clock)

let txn_started t ~epoch = Cores.Auth.txn_started t.core ~epoch

let txn_finished t ~epoch =
  match Cores.Auth.txn_finished t.core ~epoch with
  | [] -> ()
  | acks -> List.iter (send_ack t) acks

let in_flight t ~epoch = Cores.Auth.in_flight t.core ~epoch
let current_epoch t = Cores.Auth.granted t.core
let on_state_change t f = t.observers <- f :: t.observers
