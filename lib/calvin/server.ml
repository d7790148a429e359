module Value = Functor_cc.Value

type inflight = {
  routed : Message.routed;
  participants : int list;
  mutable remote_pending : int;
  mutable local_reads_done : bool;
  mutable gathered : (string * Value.t option) list;
  mutable exec_started : bool;
  mutable sched_start : int;
}

type done_track = {
  submitted_at : int;
  mutable awaiting : int;
  on_complete : unit -> unit;
}

type t = {
  sim : Sim.Engine.t;
  rpc : Message.rpc;
  address : Net.Address.t;
  node_id : int;
  n_servers : int;
  partition_of : string -> int;
  funreg : Functor_cc.Registry.t;
  epoch_us : int;
  obs : Obs.Ctl.t option;
  (* Hot-path metric handles, resolved once at creation. *)
  m_submitted : int ref;
  m_committed : int ref;
  h_stage_seq : Sim.Stats.Histogram.t;
  h_stage_lockread : Sim.Stats.Histogram.t;
  h_stage_proc : Sim.Stats.Histogram.t;
  h_lat_total : Sim.Stats.Histogram.t;
  store : (string, Value.t) Hashtbl.t;
  lm_pool : Sim.Worker_pool.t;  (* the single-threaded lock manager *)
  exec_pool : Sim.Worker_pool.t;
  lm : Lock_manager.t;
  (* sequencer *)
  mutable seq_buffer : (int * Ctxn.t * (unit -> unit)) list;
      (* (submitted_at, txn, completion), reverse order *)
  mutable seq_epoch : int;
  (* scheduler *)
  batches : (int, (int, Message.routed list) Hashtbl.t) Hashtbl.t;
      (* epoch -> seq_id -> txns *)
  mutable next_epoch : int;  (* next epoch to admit, in order *)
  inflight : (int, inflight) Hashtbl.t;
  pending_reads :
    (int, (string * Value.t option) list list ref) Hashtbl.t;
      (* reads that arrived before the batch *)
  dones : (int, done_track) Hashtbl.t;  (* origin-side completion *)
}

let read_local t key = Hashtbl.find_opt t.store key

(* Lifecycle trace emit: one option test when tracing is off. *)
let emit t ~txn ~stage ?(ts = -1) ?arg () =
  match t.obs with
  | None -> ()
  | Some ctl ->
      let ts = if ts < 0 then Sim.Engine.now t.sim else ts in
      Obs.Ctl.emit ctl ~txn ~stage ~node:t.node_id ~ts ?arg ()

let load_initial t ~key value =
  if t.partition_of key <> t.node_id then
    invalid_arg "Calvin.Server.load_initial: key not owned";
  Hashtbl.replace t.store key value

let lock_queue_depth t = Sim.Worker_pool.queue_length t.lm_pool
let inflight_count t = Hashtbl.length t.inflight

let local_keys t keys = List.filter (fun k -> t.partition_of k = t.node_id) keys

(* ---- executor ---------------------------------------------------------- *)

let send_done t (fl : inflight) =
  Net.Rpc.send t.rpc ~src:t.address
    ~dst:(Net.Address.of_int fl.routed.Message.origin)
    (Message.Done { uid = fl.routed.Message.uid; partition = t.node_id })

(* Locks released (through the lock-manager thread) after execution. *)
let release_locks t (fl : inflight) =
  let txn = fl.routed.Message.txn in
  let nlocal =
    List.length (local_keys t (txn.Ctxn.read_set @ txn.Ctxn.write_set))
  in
  let cost = max Config.cost_lock_us (nlocal * Config.cost_lock_us) in
  Sim.Worker_pool.submit t.lm_pool ~cost (fun () ->
      Lock_manager.release t.lm ~uid:fl.routed.Message.uid;
      send_done t fl)

let maybe_execute t (fl : inflight) =
  if
    fl.local_reads_done && fl.remote_pending = 0 && not fl.exec_started
  then begin
    fl.exec_started <- true;
    let exec_start = Sim.Engine.now t.sim in
    emit t ~txn:fl.routed.Message.uid ~stage:Obs.Trace.Exec_start ();
    Sim.Stats.Histogram.add t.h_stage_lockread (exec_start - fl.sched_start);
    let txn = fl.routed.Message.txn in
    let local_writes_estimate =
      List.length (local_keys t txn.Ctxn.write_set)
    in
    let cost =
      Config.cost_exec_us
      + (local_writes_estimate * Config.cost_write_us)
    in
    Sim.Worker_pool.submit t.exec_pool ~cost (fun () ->
        List.iter
          (fun (key, v) ->
            if t.partition_of key = t.node_id then
              Hashtbl.replace t.store key v)
          (Deployment.apply t.funreg txn ~reads:fl.gathered);
        Sim.Stats.Histogram.add t.h_stage_proc
          (Sim.Engine.now t.sim - exec_start);
        emit t ~txn:fl.routed.Message.uid ~stage:Obs.Trace.Exec_done ();
        Hashtbl.remove t.inflight fl.routed.Message.uid;
        release_locks t fl)
  end

(* All local locks held: read the local fragment of the read set and
   broadcast it to the other participants (redundant execution needs the
   full read set everywhere). *)
let on_locks_ready t uid =
  match Hashtbl.find_opt t.inflight uid with
  | None -> ()
  | Some fl ->
      emit t ~txn:uid ~stage:Obs.Trace.Locks_acquired ();
      let txn = fl.routed.Message.txn in
      let locals = local_keys t txn.Ctxn.read_set in
      let cost =
        max Config.cost_read_us
          (List.length locals * Config.cost_read_us)
      in
      Sim.Worker_pool.submit t.exec_pool ~cost (fun () ->
          let values =
            List.map (fun key -> (key, Hashtbl.find_opt t.store key)) locals
          in
          fl.gathered <- values @ fl.gathered;
          fl.local_reads_done <- true;
          List.iter
            (fun p ->
              if p <> t.node_id then
                Net.Rpc.send t.rpc ~src:t.address
                  ~dst:(Net.Address.of_int p)
                  (Message.Reads { uid; from = t.node_id; values }))
            fl.participants;
          maybe_execute t fl)

(* ---- scheduler --------------------------------------------------------- *)

let admit_txn t (routed : Message.routed) =
  let txn = routed.Message.txn in
  let participants = Ctxn.participants ~partition_of:t.partition_of txn in
  let fl =
    { routed; participants;
      remote_pending = List.length participants - 1;
      local_reads_done = false; gathered = []; exec_started = false;
      sched_start = 0 }
  in
  Hashtbl.replace t.inflight routed.Message.uid fl;
  (* Merge reads that raced ahead of the batch. *)
  (match Hashtbl.find_opt t.pending_reads routed.Message.uid with
  | Some buffered ->
      Hashtbl.remove t.pending_reads routed.Message.uid;
      List.iter
        (fun values ->
          fl.gathered <- values @ fl.gathered;
          fl.remote_pending <- fl.remote_pending - 1)
        !buffered
  | None -> ());
  let lock_keys =
    List.map (fun k -> (k, Lock_manager.Read))
      (local_keys t txn.Ctxn.read_set)
    @ List.map (fun k -> (k, Lock_manager.Write))
        (local_keys t txn.Ctxn.write_set)
  in
  let cost =
    max Config.cost_lock_us
      (List.length lock_keys * Config.cost_lock_us)
  in
  Sim.Worker_pool.submit t.lm_pool ~cost (fun () ->
      fl.sched_start <- Sim.Engine.now t.sim;
      emit t ~txn:routed.Message.uid ~stage:Obs.Trace.Scheduled ();
      Sim.Stats.Histogram.add t.h_stage_seq
        (fl.sched_start - routed.Message.submitted_at);
      Lock_manager.request t.lm ~uid:routed.Message.uid ~keys:lock_keys)

let rec try_admit_epochs t =
  match Hashtbl.find_opt t.batches t.next_epoch with
  | Some per_seq when Hashtbl.length per_seq = t.n_servers ->
      let epoch = t.next_epoch in
      t.next_epoch <- epoch + 1;
      Hashtbl.remove t.batches epoch;
      (* Deterministic global order: sequencer id, then batch index. *)
      for seq_id = 0 to t.n_servers - 1 do
        match Hashtbl.find_opt per_seq seq_id with
        | Some txns -> List.iter (admit_txn t) txns
        | None -> ()
      done;
      try_admit_epochs t
  | Some _ | None -> ()

let on_batch t ~epoch ~seq_id txns =
  let per_seq =
    match Hashtbl.find_opt t.batches epoch with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 8 in
        Hashtbl.add t.batches epoch h;
        h
  in
  Hashtbl.replace per_seq seq_id txns;
  try_admit_epochs t

(* ---- sequencer --------------------------------------------------------- *)

let submit t txn ~k =
  incr t.m_submitted;
  t.seq_buffer <- (Sim.Engine.now t.sim, txn, k) :: t.seq_buffer

let ship_epoch t =
  let epoch = t.seq_epoch in
  t.seq_epoch <- epoch + 1;
  let txns = List.rev t.seq_buffer in
  t.seq_buffer <- [];
  let routed =
    List.mapi
      (fun idx (submitted_at, txn, _k) ->
        { Message.uid = Message.uid_make ~epoch ~seq_id:t.node_id ~idx;
          origin = t.node_id; submitted_at; txn })
      txns
  in
  List.iter
    (fun (r : Message.routed) ->
      emit t ~txn:r.Message.uid ~stage:Obs.Trace.Submit
        ~ts:r.Message.submitted_at ();
      emit t ~txn:r.Message.uid ~stage:Obs.Trace.Sequenced ~arg:epoch ())
    routed;
  (* Participant sets are computed once per transaction and reused for
     completion tracking and per-destination routing (previously they were
     recomputed for every destination server). *)
  let routed_parts =
    List.map
      (fun (r : Message.routed) ->
        (r, Ctxn.participants ~partition_of:t.partition_of r.Message.txn))
      routed
  in
  (* Register origin-side completion tracking. *)
  List.iter2
    (fun ((r : Message.routed), participants) (_, _, k) ->
      Hashtbl.replace t.dones r.Message.uid
        { submitted_at = r.Message.submitted_at;
          awaiting = List.length participants;
          on_complete = k })
    routed_parts txns;
  (* One batch message to every server (empty ones keep the barrier). *)
  for dst = 0 to t.n_servers - 1 do
    let for_dst =
      List.filter_map
        (fun ((r : Message.routed), participants) ->
          if List.exists (fun p -> p = dst) participants then Some r else None)
        routed_parts
    in
    Net.Rpc.send t.rpc ~src:t.address ~dst:(Net.Address.of_int dst)
      (Message.Batch { epoch; seq_id = t.node_id; txns = for_dst })
  done;
  (* Sequencing work is charged per shipped transaction. *)
  if routed <> [] then
    Sim.Worker_pool.submit t.exec_pool
      ~cost:(List.length routed * Config.cost_seq_us)
      (fun () -> ())

let on_done t ~uid =
  match Hashtbl.find_opt t.dones uid with
  | None -> ()
  | Some d ->
      d.awaiting <- d.awaiting - 1;
      if d.awaiting = 0 then begin
        Hashtbl.remove t.dones uid;
        incr t.m_committed;
        emit t ~txn:uid ~stage:Obs.Trace.Committed ();
        Sim.Stats.Histogram.add t.h_lat_total
          (Sim.Engine.now t.sim - d.submitted_at);
        d.on_complete ()
      end

(* ---- wiring ------------------------------------------------------------ *)

let on_reads t ~uid ~values =
  match Hashtbl.find_opt t.inflight uid with
  | Some fl ->
      fl.gathered <- values @ fl.gathered;
      fl.remote_pending <- fl.remote_pending - 1;
      maybe_execute t fl
  | None ->
      let buffered =
        match Hashtbl.find_opt t.pending_reads uid with
        | Some r -> r
        | None ->
            let r = ref [] in
            Hashtbl.add t.pending_reads uid r;
            r
      in
      buffered := values :: !buffered

type req = Message.wire
type resp = unit

let name = "calvin"
let committed_key = "calvin.committed"
let latency_key = "calvin.lat_total_us"

(* Calvin procs cannot abort, so there is no abort counter to report. *)
let abort_keys = []
let counter_keys = []

let stage_keys =
  [ ("sequencing", "calvin.stage_seq_us");
    ("locking and read", "calvin.stage_lockread_us");
    ("processing", "calvin.stage_proc_us") ]

let gauges =
  [ ("gauge.lock_queue_depth", lock_queue_depth);
    ("gauge.inflight_txns", inflight_count) ]

let create
    { Deployment.sim; rpc; node_id; partition_of; funreg; metrics; params;
      seed = _ } =
  let executors = max 1 (Config.cores - 2) in
  let c = Sim.Metrics.counter metrics in
  let h = Sim.Metrics.histogram metrics in
  let addr = Net.Address.of_int node_id in
  let rec t =
    lazy
    { sim; rpc; address = addr; node_id; n_servers = params.n_servers;
      partition_of; funreg;
      epoch_us =
        Option.value params.epoch_us ~default:Config.default_epoch_us;
      obs = params.obs;
      m_submitted = c "calvin.submitted";
      m_committed = c committed_key;
      h_stage_seq = h "calvin.stage_seq_us";
      h_stage_lockread = h "calvin.stage_lockread_us";
      h_stage_proc = h "calvin.stage_proc_us";
      h_lat_total = h latency_key;
      store = Hashtbl.create 65536;
      lm_pool = Sim.Worker_pool.create sim ~workers:1;
      exec_pool = Sim.Worker_pool.create sim ~workers:executors;
      lm =
        Lock_manager.create ~on_ready:(fun uid ->
            on_locks_ready (Lazy.force t) uid);
      seq_buffer = []; seq_epoch = 0;
      batches = Hashtbl.create 16; next_epoch = 0;
      inflight = Hashtbl.create 4096;
      pending_reads = Hashtbl.create 256;
      dones = Hashtbl.create 4096 }
  in
  let t = Lazy.force t in
  Net.Rpc.serve_oneway rpc addr (fun ~src:_ wire ->
      match wire with
      | Message.Batch { epoch; seq_id; txns } ->
          Sim.Worker_pool.submit t.exec_pool ~cost:Config.cost_msg_us
            (fun () -> on_batch t ~epoch ~seq_id txns)
      | Message.Reads { uid; from = _; values } ->
          Sim.Worker_pool.submit t.exec_pool ~cost:Config.cost_msg_us
            (fun () -> on_reads t ~uid ~values)
      | Message.Done { uid; partition = _ } -> on_done t ~uid);
  t

let start t =
  let rec tick () =
    ship_epoch t;
    Sim.Engine.after t.sim t.epoch_us tick
  in
  Sim.Engine.after t.sim t.epoch_us tick
