module Value = Functor_cc.Value
module LM = Calvin.Lock_manager

(* Participant-side state for a lock request that may still time out. *)
type lock_wait = {
  reply : Message.resp -> unit;
  reads : string list;
  mutable settled : bool;
}

type t = {
  sim : Sim.Engine.t;
  rpc : Message.rpc;
  address : Net.Address.t;
  node_id : int;
  partition_of : string -> int;
  funreg : Functor_cc.Registry.t;
  obs : Obs.Ctl.t option;
  (* Hot-path metric handles, resolved once at creation. *)
  m_submitted : int ref;
  m_committed : int ref;
  m_restarts : int ref;
  m_given_up : int ref;
  m_lock_timeouts : int ref;
  h_lat_total : Sim.Stats.Histogram.t;
  rng : Sim.Rng.t;
  store : (string, Value.t) Hashtbl.t;
  pool : Sim.Worker_pool.t;
  lm : LM.t;
  waits : (int, lock_wait) Hashtbl.t;
  prepared : (int, (string * Value.t) list) Hashtbl.t;
  mutable next_txn : int;
}

let read_local t key = Hashtbl.find_opt t.store key

(* Lifecycle trace emit: one option test when tracing is off. *)
let emit t ~txn ~stage ?arg () =
  match t.obs with
  | None -> ()
  | Some ctl ->
      Obs.Ctl.emit ctl ~txn ~stage ~node:t.node_id ~ts:(Sim.Engine.now t.sim)
        ?arg ()

let load_initial t ~key value =
  if t.partition_of key <> t.node_id then
    invalid_arg "Twopl.Server.load_initial: key not owned";
  Hashtbl.replace t.store key value

let lock_waits t = Hashtbl.length t.waits
let prepared_count t = Hashtbl.length t.prepared

(* ---- participant side -------------------------------------------------- *)

let on_locks_granted t uid =
  match Hashtbl.find_opt t.waits uid with
  | None -> ()
  | Some w ->
      if not w.settled then begin
        w.settled <- true;
        Hashtbl.remove t.waits uid;
        let cost =
          max Config.cost_read_us
            (List.length w.reads * Config.cost_read_us)
        in
        Sim.Worker_pool.submit t.pool ~cost (fun () ->
            let values =
              List.map (fun key -> (key, Hashtbl.find_opt t.store key)) w.reads
            in
            w.reply (Message.Locked { values }))
      end

let do_lock_and_read t ~uid ~reads ~writes reply =
  let keys =
    List.map (fun k -> (k, LM.Read)) reads
    @ List.map (fun k -> (k, LM.Write)) writes
  in
  let w = { reply; reads; settled = false } in
  Hashtbl.replace t.waits uid w;
  let cost =
    max Config.cost_lock_us
      (List.length keys * Config.cost_lock_us)
  in
  Sim.Worker_pool.submit t.pool ~cost (fun () ->
      LM.request t.lm ~uid ~keys;
      (* Deadlock resolution by timeout: if the locks are not all granted
         in time, give up and release whatever queued. *)
      if not w.settled then
        Sim.Engine.after t.sim Config.lock_timeout_us (fun () ->
            if not w.settled then begin
              w.settled <- true;
              Hashtbl.remove t.waits uid;
              LM.release t.lm ~uid;
              incr t.m_lock_timeouts;
              emit t ~txn:uid ~stage:Obs.Trace.Lock_timeout ();
              w.reply Message.Lock_timeout
            end))

let do_prepare t ~uid ~writes reply =
  (* No durable log here (fault tolerance off, as for the other systems):
     prepare just stages the writes. *)
  Hashtbl.replace t.prepared uid writes;
  reply Message.Prepared

let do_commit t ~uid reply =
  (match Hashtbl.find_opt t.prepared uid with
  | Some writes ->
      Hashtbl.remove t.prepared uid;
      List.iter (fun (key, v) -> Hashtbl.replace t.store key v) writes
  | None -> ());
  (* Strict 2PL: locks are held through commit. *)
  (try LM.release t.lm ~uid with Invalid_argument _ -> ());
  reply Message.Done

let do_release t ~uid reply =
  Hashtbl.remove t.prepared uid;
  (match Hashtbl.find_opt t.waits uid with
  | Some w ->
      w.settled <- true;
      Hashtbl.remove t.waits uid
  | None -> ());
  (try LM.release t.lm ~uid with Invalid_argument _ -> ());
  reply Message.Done

(* ---- coordinator side --------------------------------------------------- *)

let group_keys t keys =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun k ->
      let p = t.partition_of k in
      match Hashtbl.find_opt tbl p with
      | Some r -> r := k :: !r
      | None -> Hashtbl.add tbl p (ref [ k ]))
    keys;
  tbl

let participants_of t (txn : Calvin.Ctxn.t) =
  Calvin.Ctxn.participants ~partition_of:t.partition_of txn

let rec attempt t txn ~tries ~submitted_at k =
  let uid = t.next_txn in
  t.next_txn <- t.next_txn + 1024;  (* keep the node id in the low bits *)
  emit t ~txn:uid ~stage:Obs.Trace.Submit ~arg:tries ();
  let parts = participants_of t txn in
  let reads_by = group_keys t txn.Calvin.Ctxn.read_set in
  let writes_by = group_keys t txn.Calvin.Ctxn.write_set in
  let keys_of tbl p =
    match Hashtbl.find_opt tbl p with Some r -> !r | None -> []
  in
  let awaiting = ref (List.length parts) in
  let failed = ref false in
  let granted = ref [] in
  let values = ref [] in
  let finish_abort () =
    (* Release everything we managed to lock, then retry or give up. *)
    let to_release = !granted in
    let pending = ref (List.length to_release) in
    let continue () =
      if tries < Config.max_retries then begin
        incr t.m_restarts;
        emit t ~txn:uid ~stage:Obs.Trace.Restarted ~arg:tries ();
        let backoff =
          Config.retry_backoff_us
          + Sim.Rng.int t.rng (Config.retry_backoff_us * (tries + 1))
        in
        Sim.Engine.after t.sim backoff (fun () ->
            attempt t txn ~tries:(tries + 1) ~submitted_at k)
      end
      else begin
        incr t.m_given_up;
        emit t ~txn:uid ~stage:Obs.Trace.Aborted ~arg:tries ();
        k ()
      end
    in
    if to_release = [] then continue ()
    else
      List.iter
        (fun p ->
          Net.Rpc.call t.rpc ~src:t.address ~dst:(Net.Address.of_int p)
            (Message.Release { uid })
            (fun _ ->
              decr pending;
              if !pending = 0 then continue ()))
        to_release
  in
  let proceed_commit () =
    (* Execute the ops, then two-phase commit. *)
    Sim.Worker_pool.submit t.pool ~cost:Config.cost_exec_us
      (fun () ->
        let writes =
          Calvin.Deployment.apply t.funreg txn ~reads:!values
        in
        let writes_for p =
          List.filter (fun (key, _) -> t.partition_of key = p) writes
        in
        let prepared = ref (List.length parts) in
        List.iter
          (fun p ->
            Net.Rpc.call t.rpc ~src:t.address ~dst:(Net.Address.of_int p)
              (Message.Prepare { uid; writes = writes_for p })
              (fun _ ->
                decr prepared;
                if !prepared = 0 then begin
                  emit t ~txn:uid ~stage:Obs.Trace.Prepared ();
                  (* Phase 2. *)
                  let committed = ref (List.length parts) in
                  List.iter
                    (fun p ->
                      Net.Rpc.call t.rpc ~src:t.address
                        ~dst:(Net.Address.of_int p)
                        (Message.Commit { uid })
                        (fun _ ->
                          decr committed;
                          if !committed = 0 then begin
                            incr t.m_committed;
                            emit t ~txn:uid ~stage:Obs.Trace.Committed ();
                            Sim.Stats.Histogram.add t.h_lat_total
                              (Sim.Engine.now t.sim - submitted_at);
                            k ()
                          end))
                    parts
                end))
          parts)
  in
  List.iter
    (fun p ->
      Net.Rpc.call t.rpc ~src:t.address ~dst:(Net.Address.of_int p)
        (Message.Lock_and_read
           { uid; reads = keys_of reads_by p; writes = keys_of writes_by p })
        (fun resp ->
          decr awaiting;
          (match resp with
          | Message.Locked { values = vs } ->
              granted := p :: !granted;
              values := vs @ !values
          | Message.Lock_timeout -> failed := true
          | Message.Prepared | Message.Done -> failed := true);
          if !awaiting = 0 then
            if !failed then finish_abort ()
            else begin
              emit t ~txn:uid ~stage:Obs.Trace.Locks_acquired ();
              proceed_commit ()
            end))
    parts

let submit t txn ~k =
  incr t.m_submitted;
  attempt t txn ~tries:0 ~submitted_at:(Sim.Engine.now t.sim) k

(* ---- construction -------------------------------------------------------- *)

type req = Message.req
type resp = Message.resp

let name = "twopl"
let committed_key = "twopl.committed"
let latency_key = "twopl.lat_total_us"
let abort_keys = [ ("gave up", "twopl.given_up") ]

let counter_keys =
  [ ("lock timeouts", "twopl.lock_timeouts"); ("restarts", "twopl.restarts") ]

let stage_keys = []

let gauges =
  [ ("gauge.lock_waits", lock_waits); ("gauge.prepared_txns", prepared_count) ]

(* 2PL has no epochs: the params' [epoch_us] is ignored and [start] has
   nothing to start. *)
let start (_ : t) = ()

let create
    { Calvin.Deployment.sim; rpc; node_id; partition_of; funreg; metrics;
      params; seed } =
  let c = Sim.Metrics.counter metrics in
  let rec t =
    lazy
    { sim; rpc; address = Net.Address.of_int node_id; node_id; partition_of;
      funreg; obs = params.obs;
      m_submitted = c "twopl.submitted";
      m_committed = c committed_key;
      m_restarts = c "twopl.restarts";
      m_given_up = c "twopl.given_up";
      m_lock_timeouts = c "twopl.lock_timeouts";
      h_lat_total = Sim.Metrics.histogram metrics latency_key;
      rng = Sim.Rng.create (seed + node_id);
      store = Hashtbl.create 65536;
      pool = Sim.Worker_pool.create sim ~workers:Config.cores;
      lm = LM.create ~on_ready:(fun uid -> on_locks_granted (Lazy.force t) uid);
      waits = Hashtbl.create 256;
      prepared = Hashtbl.create 256;
      next_txn = node_id }
  in
  let t = Lazy.force t in
  Net.Rpc.serve rpc t.address (fun ~src:_ req ~reply ->
      match req with
      | Message.Lock_and_read { uid; reads; writes } ->
          Sim.Worker_pool.submit t.pool ~cost:Config.cost_msg_us
            (fun () -> do_lock_and_read t ~uid ~reads ~writes reply)
      | Message.Prepare { uid; writes } ->
          let cost =
            Config.cost_msg_us
            + (List.length writes * Config.cost_write_us)
          in
          Sim.Worker_pool.submit t.pool ~cost (fun () ->
              do_prepare t ~uid ~writes reply)
      | Message.Commit { uid } ->
          Sim.Worker_pool.submit t.pool ~cost:Config.cost_msg_us
            (fun () -> do_commit t ~uid reply)
      | Message.Release { uid } ->
          Sim.Worker_pool.submit t.pool ~cost:Config.cost_msg_us
            (fun () -> do_release t ~uid reply));
  t
