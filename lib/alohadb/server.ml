module Key = Mvstore.Key

type t = {
  node : Node.t;
  replica : Replica.t;
  backend : Backend.t;
  frontend : Frontend.t;
  mutable last_closed_epoch : int;
      (* the backend releases every epoch up to here on restart and
         adoption *)
  mutable on_crash : unit -> unit;
  mutable on_restart : unit -> unit;
      (* lifecycle hooks for the cluster's failure monitor *)
}

let addr t = t.node.address
let pool t = t.node.pool
let engine t = Backend.engine t.backend
let participant t = t.node.part
let clock t = t.node.clock
let held_requests t = Frontend.held_requests t.frontend
let be_down t = t.node.be_down
let submit t req reply = Frontend.submit t.frontend req reply

let close_epoch t ~epoch =
  let node = t.node in
  Node.emit node ~txn:(-1) ~stage:Obs.Trace.Epoch_close ~arg:epoch ();
  if epoch > t.last_closed_epoch then t.last_closed_epoch <- epoch;
  (* Planning the closed epochs' functors is skipped while the backend is
     down; the restart releases everything up to [last_closed_epoch]. *)
  if not node.be_down then Backend.release_closed t.backend ~upto_epoch:epoch;
  Node.lnote node (fun l ->
      Backend.note_close t.backend l ~epoch;
      Replica.note_groups t.replica l ~epoch);
  Frontend.release_reads t.frontend ~epoch

let create ~sim ~data ~control ~fabric ~addr ~node_id ~em ~clock
    ~partition_of ~addr_of_partition ~my_partition ~registry ~config
    ~durable ~hardened ~metrics ?obs ?real_pool () =
  let pool = Sim.Worker_pool.create sim ~workers:Config.cores in
  let part =
    Epoch.Participant.create ~rpc:control ~addr ~em ~clock
      ~straggler_opt:config.Config.straggler_opt ~metrics ()
  in
  let node =
    { Node.sim; data; address = addr; node_id; clock; partition_of;
      addr_of_partition; my_partition; config; durable; hardened; metrics;
      obs; ledger = Option.bind obs Obs.Ctl.ledger; pool; real_pool; part;
      be_down = false }
  in
  let replica = Replica.create node fabric in
  let backend = Backend.create ~node ~replica ~registry in
  let frontend = Frontend.create ~node ~backend in
  let t =
    { node; replica; backend; frontend; last_closed_epoch = 0;
      on_crash = ignore; on_restart = ignore }
  in
  Epoch.Participant.serve part
    ~on_open:(fun ~epoch ~lo:_ ~hi:_ ->
      Node.lnote node (fun l ->
          Obs.Ledger.note_open l ~node:node_id ~epoch ~t_us:(Node.now node));
      Frontend.drain_held frontend)
    ~on_closed:(fun ~epoch -> Replica.gate replica ~epoch (close_epoch t));
  Epoch.Participant.on_state_change part (fun () ->
      Frontend.drain_held frontend);
  (* Data-plane request handler: all BE work is charged to the pool. *)
  Net.Rpc.serve data addr (fun ~src wire ~reply ->
      match wire with
      | Message.Req (Message.Install inst) ->
          let cost =
            Config.cost_install_base_us
            + (List.length inst.writes * Config.cost_install_us)
          in
          Sim.Worker_pool.submit pool ~cost (fun () ->
              Backend.install backend ~src inst reply)
      | Message.Req (Message.Abort_txn { ts; keys }) ->
          Sim.Worker_pool.submit pool ~cost:Config.cost_msg_us (fun () ->
              Backend.abort backend ~ts ~keys reply)
      | Message.Req (Message.Get_req { key; version }) ->
          Sim.Worker_pool.submit pool ~cost:Config.cost_get_us (fun () ->
              Backend.serve_get backend ~key ~version reply)
      | Message.One _ -> ());
  Net.Rpc.serve_oneway data addr (fun ~src wire ->
      match wire with
      | Message.One
          ( Message.Push { key; version; src_key; value }
          | Message.Plan_push { key; version; src_key; value } ) ->
          Sim.Worker_pool.submit pool ~cost:Config.cost_msg_us (fun () ->
              Backend.deliver_push backend ~key ~version ~src_key value)
      | Message.One (Message.Dep_write { key; version; final }) ->
          Sim.Worker_pool.submit pool ~cost:Config.cost_msg_us (fun () ->
              Backend.deliver_dep_write backend ~key ~version ~final)
      | Message.One
          (Message.Batch_done
             { txn_id; partition; functors = _; max_retrieved_at; aborted })
        ->
          (* Frontend-role message: processed even while the backend role
             is down.  Always acked — including duplicates of an already
             completed transaction — so the sender's resend loop stops. *)
          Frontend.on_batch_done frontend ~txn_id ~partition ~max_retrieved_at
            ~aborted;
          Net.Rpc.send data ~src:addr ~dst:src
            (Message.One (Message.Batch_done_ack { txn_id; partition }))
      | Message.One (Message.Batch_done_ack { txn_id; partition }) ->
          Backend.batch_done_acked backend ~txn_id ~partition
      | Message.One (Message.Plan_sub { key; version; dst_key; dst_version })
        ->
          (* Charged like a Get. *)
          Sim.Worker_pool.submit pool ~cost:Config.cost_get_us (fun () ->
              Backend.serve_plan_sub backend ~src ~key ~version ~dst_key
                ~dst_version)
      | Message.One (Message.Wal_ship _) | Message.One (Message.Ship_ack _) ->
          (* replication traffic travels on its own plane *)
          ()
      | Message.Req _ -> ());
  t

let load_initial t ~key value =
  Backend.load_initial t.backend ~key:(Key.intern key) value

let wal t = Replica.wal t.replica
let compute_queue_depth t = Backend.compute_queue_depth t.backend
let inflight_functors t = Backend.inflight_functors t.backend
let value_watermark_lag_us t = Backend.value_watermark_lag_us t.backend
let wal_pending_bytes t = Replica.wal_pending_bytes t.replica
let replication_lag t = Replica.replication_lag t.replica

let note_member_down t = Replica.note_member_down t.replica
let note_member_rejoin t = Replica.note_member_rejoin t.replica

let set_lifecycle_hooks t ~on_crash ~on_restart =
  t.on_crash <- on_crash;
  t.on_restart <- on_restart

(* ---- transitions across roles ------------------------------------------ *)

let crash_be t =
  if t.node.be_down then invalid_arg "Server.crash_be: backend already down";
  t.node.be_down <- true;
  Sim.Metrics.incr t.node.metrics "aloha.be_crashes";
  Replica.crash t.replica (close_epoch t);
  Backend.crash t.backend;
  Node.lnote t.node (fun l ->
      Obs.Ledger.note_event l ~kind:Obs.Ledger.Crash ~node:t.node.node_id
        ~t_us:(Node.now t.node) ());
  t.on_crash ()

(* Epochs that closed while we were down (or before the crash) are
   released for recomputation — the epoch-close work the crash made us
   miss; later epochs stay buffered until their own close. *)
let restart_be t =
  if not t.node.be_down then invalid_arg "Server.restart_be: backend is up";
  Sim.Metrics.incr t.node.metrics "aloha.be_restarts";
  Replica.demote_lost t.replica;
  Replica.iter_led t.replica (fun ~partition wal ->
      Backend.replay t.backend ~partition ~entries:(Wal.durable wal));
  if Replica.leads_any t.replica then
    Backend.release_closed t.backend ~upto_epoch:t.last_closed_epoch;
  t.node.be_down <- false;
  Replica.reship_all t.replica;
  t.on_restart ();
  Node.lnote t.node (fun l ->
      Obs.Ledger.note_event l ~kind:Obs.Ledger.Restart ~node:t.node.node_id
        ~t_us:(Node.now t.node) ())

let adopt_partition t ~partition ~down =
  Replica.adopt t.replica ~partition ~down
    ~closed_epoch:t.last_closed_epoch
    ~replay:(fun entries ->
      Backend.replay t.backend ~partition ~entries)
    ~release:(fun () ->
      Backend.release_closed t.backend ~upto_epoch:t.last_closed_epoch)
