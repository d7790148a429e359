module Ts = Clocksync.Timestamp
module Funct = Functor_cc.Funct
module Txn_part_tbl = Node.Txn_part_tbl

(* Per-transaction batch tracking: how many locally installed functors
   still await a final value. *)
type batch = {
  coordinator : Net.Address.t;
  mutable remaining : int;
  mutable batch_max_retrieved : int;
  mutable batch_aborted : bool;
}

(* Everything a backend crash destroys (see the interface). *)
type inc = {
  engine : Functor_cc.Compute_engine.t;
  processor : Functor_cc.Processor.t;
      (* installs awaiting their epoch's close *)
  fast : Functor_cc.Processor.t;
      (* fast-lane installs awaiting their lazy merge, by epoch.  The
         functors are already on their chains — reads fold them on demand
         through the engine's at-most-once discipline — and epoch close
         folds the remainder so the value watermark keeps advancing;
         recovery rebuilds it from the WAL's [fast] entries *)
  planner : Functor_cc.Planner.t;
  batches : batch Txn_part_tbl.t;
      (* (txn_id, partition) -> batch: a server that adopted a partition
         can hold two batches of the same transaction *)
  install_verdicts : bool Txn_part_tbl.t;
      (* (txn_id, partition) -> install ack verdict, so retransmitted
         installs are answered idempotently *)
  pending_dones : unit Txn_part_tbl.t;
      (* (txn_id, partition) pairs whose Batch_done awaits the
         coordinator's ack; drives the resend loop *)
  mutable live : bool;  (* cleared by the crash that replaces it *)
}

type t = {
  node : Node.t;
  replica : Replica.t;
  registry : Functor_cc.Registry.t;
  mutable cur : inc;
  m_functors_installed : int ref;
  m_precondition_failures : int ref;
  m_be_dropped : int ref;
}

let engine b = b.cur.engine
let now b = Node.now b.node
let owns_in node replica key =
  Replica.leads replica ~partition:(node.Node.partition_of key)
let owns b key = owns_in b.node b.replica key

(* Guard of the keyed storage handlers: whether this server's backend is
   up and owns [key]; a request it cannot serve is dropped (and counted),
   and the sender's retry re-resolves the owner. *)
let serves b key =
  if (not b.node.be_down) && owns b key then true
  else begin
    incr b.m_be_dropped;
    false
  end

let new_batch node coordinator =
  { coordinator; remaining = 0; batch_max_retrieved = Node.now node;
    batch_aborted = false }

let send_batch_done node inc (b : batch) ~txn_id ~partition ~functors =
  let send () =
    Net.Rpc.send node.Node.data ~src:node.address ~dst:b.coordinator
      (Message.One
         (Message.Batch_done
            { txn_id; partition; functors;
              max_retrieved_at = b.batch_max_retrieved;
              aborted = b.batch_aborted }))
  in
  send ();
  (* The notification is one-way, so a lossy network can eat it and wedge
     the coordinator; a hardened backend repeats it until the
     coordinator's Batch_done_ack clears it (the coordinator dedupes by
     partition), for as long as this incarnation lives. *)
  if node.hardened then begin
    Txn_part_tbl.replace inc.pending_dones (txn_id, partition) ();
    let rec again () =
      if inc.live && Txn_part_tbl.mem inc.pending_dones (txn_id, partition)
      then begin
        send ();
        Sim.Engine.after node.sim Config.retry_us again
      end
    in
    Sim.Engine.after node.sim Config.retry_us again
  end

let on_functor_final node inc ~key ~pending ~final =
  let partition = node.Node.partition_of key in
  match Txn_part_tbl.find_opt inc.batches (pending.Funct.txn_id, partition) with
  | None -> ()
  | Some { remaining; _ } when remaining <= 0 ->
      (* A recovered pending functor (not tracked by any live batch)
         finalised against a later batch for the same txn; don't let it
         drive [remaining] negative. *)
      ()
  | Some b ->
      b.remaining <- b.remaining - 1;
      if pending.Funct.retrieved_at_us > b.batch_max_retrieved then
        b.batch_max_retrieved <- pending.Funct.retrieved_at_us;
      (match (final, pending.Funct.ftype) with
      | Funct.Aborted_v, Functor_cc.Ftype.Dep_marker _ ->
          (* A skipped dependent write is not a transaction abort: the
             determinate functor committed and simply chose not to write
             this key.  A genuine abort is reported by the determinate
             functor's own (non-marker) record. *)
          ()
      | Funct.Aborted_v, _ -> b.batch_aborted <- true
      | (Funct.Committed _ | Funct.Deleted_v), _ -> ());
      if b.remaining = 0 then begin
        Txn_part_tbl.remove inc.batches (pending.Funct.txn_id, partition);
        send_batch_done node inc b ~txn_id:pending.Funct.txn_id ~partition
          ~functors:0
      end

(* A fresh incarnation: empty engine, processors, planner and tables.
   Its callbacks reach the record they belong to through [self], which is
   forced before any of them can run. *)
let incarnation ~node ~replica ~registry =
  let send_to partition msg =
    Net.Rpc.send node.Node.data ~src:node.address
      ~dst:(node.addr_of_partition partition)
      (Message.One msg)
  in
  let rec self =
    lazy
      (let live () = (Lazy.force self).live in
       let callbacks =
         { Functor_cc.Compute_engine.is_local = owns_in node replica;
           remote_get =
             (fun ~key ~version k ->
               if live () then Node.remote_get node ~key ~version k);
           send_push =
             (fun ~dst_key ~version ~src_key value ->
               let inc = Lazy.force self in
               if inc.live then begin
                 let partition = node.partition_of dst_key in
                 if Replica.leads replica ~partition then
                   Functor_cc.Compute_engine.deliver_push inc.engine
                     ~key:dst_key ~version ~src_key value
                 else
                   send_to partition
                     (Message.Push { key = dst_key; version; src_key; value })
               end);
           send_dep_write =
             (fun ~key ~version final ->
               let inc = Lazy.force self in
               if inc.live then begin
                 let partition = node.partition_of key in
                 if Replica.leads replica ~partition then
                   Functor_cc.Compute_engine.deliver_dep_write inc.engine ~key
                     ~version ~final
                 else
                   send_to partition (Message.Dep_write { key; version; final })
               end);
           notify_final =
             (fun ~key ~version:_ ~pending ~final ->
               let inc = Lazy.force self in
               if inc.live then begin
                 Node.emit node ~txn:pending.Funct.txn_id
                   ~stage:Obs.Trace.Compute_done ();
                 on_functor_final node inc ~key ~pending ~final
               end);
           exec =
             (fun ~cost k ->
               if live () then Sim.Worker_pool.submit node.pool ~cost k);
           now = (fun () -> Sim.Engine.now node.sim) }
       in
       let engine =
         Functor_cc.Compute_engine.create ~registry ~callbacks
           ~compute_cost_us:Config.cost_compute_us ~metrics:node.metrics ()
       in
       (* The dispatch observer looks the functor's transaction id up in
          the table; the probe is only paid on traced runs. *)
       let on_dispatch =
         match node.obs with
         | None -> None
         | Some _ ->
             Some
               (fun ~key ~version ->
                 match
                   Mvstore.Table.find_le
                     (Functor_cc.Compute_engine.table engine)
                     ~key ~version
                 with
                 | Some (v, record) when v = version -> (
                     match record.Funct.state with
                     | Funct.Pending p ->
                         Node.emit node ~txn:p.Funct.txn_id
                           ~stage:Obs.Trace.Compute_start ()
                     | Funct.Final _ -> ())
                 | Some _ | None -> ())
       in
       (* Plan subscriptions push remote read-set values ahead of the
          reader, so they belong to the §IV-B push optimisation and follow
          its switch. *)
       let send_plan_sub =
         if not node.config.Config.push_opt then None
         else
           Some
             (fun ~key ~version ~dst_key ~dst_version ->
               if live () then
                 send_to (node.partition_of key)
                   (Message.Plan_sub { key; version; dst_key; dst_version }))
       in
       let planner =
         Functor_cc.Planner.create ~engine ~pool:node.pool ?real:node.real_pool
           ~dispatch_cost_us:Config.cost_dispatch_us ~metrics:node.metrics
           ~is_local:(owns_in node replica) ?send_plan_sub
           ~now:(fun () -> Sim.Engine.now node.sim)
           ?on_dispatch
           ~on_evaluated:(fun ~elapsed_us ->
             if live () then
               Node.emit node ~txn:(-1) ~stage:Obs.Trace.Plan_evaluate
                 ~arg:elapsed_us ())
           ()
       in
       { engine; processor = Functor_cc.Processor.create ();
         fast = Functor_cc.Processor.create (); planner;
         batches = Txn_part_tbl.create 1024;
         install_verdicts = Txn_part_tbl.create 1024;
         pending_dones = Txn_part_tbl.create 64; live = true })
  in
  Lazy.force self

let create ~node ~replica ~registry =
  let c = Sim.Metrics.counter node.Node.metrics in
  { node; replica; registry;
    cur = incarnation ~node ~replica ~registry;
    m_functors_installed = c "aloha.functors_installed";
    m_precondition_failures = c "aloha.precondition_failures";
    m_be_dropped = c "aloha.be_dropped" }

let crash b =
  b.cur.live <- false;
  b.cur <- incarnation ~node:b.node ~replica:b.replica ~registry:b.registry

(* ---- install and abort --------------------------------------------------- *)

(* Answer an install or abort with [msg] once the log entries it covers
   are durable ({!Replica.after_logged}).  A rejected install logged
   nothing and is answered at once. *)
let ack_logged b ~partition ~gated msg reply =
  Replica.after_logged b.replica ~partition ~gated (fun () -> reply msg)

let install b ~src (inst : Message.install) reply =
  (* Every write of an install lives on one partition (the FE grouped
     them); a server that no longer leads it (demoted while the FE's
     routing was stale) must drop the request so the retry re-resolves. *)
  let first = fst (List.hd inst.writes) in
  if serves b first then
    let inc = b.cur in
    let partition = b.node.partition_of first in
    match
      Txn_part_tbl.find_opt inc.install_verdicts (inst.txn_id, partition)
    with
    | Some ok ->
        (* Retransmission of an install we already answered (the ack was
           lost): repeat the verdict, without re-applying anything. *)
        ack_logged b ~partition ~gated:ok (Message.Install_ack { ok }) reply
    | None ->
        let present key =
          match
            Mvstore.Table.find_le
              (Functor_cc.Compute_engine.table inc.engine)
              ~key ~version:inst.ts
          with
          | Some _ -> true
          | None -> false
        in
        if not (List.for_all present inst.preconditions) then begin
          incr b.m_precondition_failures;
          Txn_part_tbl.replace inc.install_verdicts (inst.txn_id, partition)
            false;
          ack_logged b ~partition ~gated:false
            (Message.Install_ack { ok = false })
            reply
        end
        else begin
          let lo = Ts.to_int (Ts.window_lo ~time_us:inst.lo) in
          let hi = Ts.to_int (Ts.window_hi ~time_us:inst.hi) in
          let batch = new_batch b.node src in
          List.iter
            (fun (key, spec) ->
              let record =
                Message.functor_of_fspec spec ~txn_id:inst.txn_id
                  ~coordinator:(Net.Address.to_int src)
              in
              match
                Functor_cc.Compute_engine.install b.cur.engine ~key
                  ~version:inst.ts ~lo ~hi record
              with
              | Ok () -> (
                  incr b.m_functors_installed;
                  Replica.log_entry b.replica ~partition
                    (Wal.Log_install
                       { key; version = inst.ts; spec; txn_id = inst.txn_id;
                         coordinator = Net.Address.to_int src;
                         epoch = inst.epoch; fast = inst.fast });
                  match record.Funct.state with
                  | Funct.Pending _ ->
                      if inst.fast then
                        (* Pre-committed at the coordinator: no epoch
                           batch, no Batch_done — the delta merges lazily
                           at the next read or epoch close. *)
                        Functor_cc.Processor.buffer b.cur.fast ~epoch:inst.epoch
                          ~key ~version:inst.ts
                      else begin
                        batch.remaining <- batch.remaining + 1;
                        Functor_cc.Processor.buffer b.cur.processor
                          ~epoch:inst.epoch ~key ~version:inst.ts
                      end
                  | Funct.Final _ -> ())
              | Error (`Duplicate_version | `Version_out_of_window) ->
                  (* The version already exists: a WAL-recovered copy of
                     this very install, retransmitted because the crash ate
                     the ack (the verdict cache is volatile).  The
                     recovered record is authoritative — it was re-buffered
                     by the restart — so there is nothing to apply. *)
                  ())
            inst.writes;
          if not inst.fast then
            if batch.remaining = 0 then
              send_batch_done b.node inc batch ~txn_id:inst.txn_id ~partition
                ~functors:(List.length inst.writes)
            else
              Txn_part_tbl.replace inc.batches (inst.txn_id, partition) batch;
          Txn_part_tbl.replace inc.install_verdicts (inst.txn_id, partition)
            true;
          ack_logged b ~partition ~gated:true
            (Message.Install_ack { ok = true })
            reply
        end

let abort b ~ts ~keys reply =
  match keys with
  | [] -> reply Message.Abort_ack
  | first :: _ ->
      if serves b first then begin
        let partition = b.node.partition_of first in
        List.iter
          (fun key ->
            Replica.log_entry b.replica ~partition
              (Wal.Log_abort { key; version = ts });
            Functor_cc.Compute_engine.abort_version b.cur.engine ~key
              ~version:ts)
          keys;
        ack_logged b ~partition ~gated:true Message.Abort_ack reply
      end

(* ---- reads, pushes and acks from the data plane -------------------------- *)

(* While this backend is down its own keys go out as self-addressed
   requests, dropped and retried until the restart answers them. *)
let read b ~key ~version k =
  if owns b key && not b.node.be_down then
    Sim.Worker_pool.submit b.node.pool ~cost:Config.cost_get_us (fun () ->
        Functor_cc.Compute_engine.get b.cur.engine ~key ~version k)
  else Node.remote_get b.node ~key ~version k

let serve_get b ~key ~version reply =
  if serves b key then
    Functor_cc.Compute_engine.get b.cur.engine ~key ~version (fun v ->
        Node.emit b.node ~txn:version ~stage:Obs.Trace.Read_served ();
        reply (Message.Get_resp v))

(* A remote plan wants this key's value pushed to one of its nodes:
   evaluate (on demand, through the engine's at-most-once discipline) and
   push the value back. *)
let serve_plan_sub b ~src ~key ~version ~dst_key ~dst_version =
  if serves b key then
    Functor_cc.Compute_engine.get b.cur.engine ~key ~version (fun value ->
        Net.Rpc.send b.node.data ~src:b.node.address ~dst:src
          (Message.One
             (Message.Plan_push
                { key = dst_key; version = dst_version; src_key = key;
                  value })))

let deliver_push b ~key ~version ~src_key value =
  if serves b key then
    Functor_cc.Compute_engine.deliver_push b.cur.engine ~key ~version
      ~src_key value

let deliver_dep_write b ~key ~version ~final =
  if serves b key then
    Functor_cc.Compute_engine.deliver_dep_write b.cur.engine ~key ~version
      ~final

let batch_done_acked b ~txn_id ~partition =
  Txn_part_tbl.remove b.cur.pending_dones (txn_id, partition)

(* ---- epoch close --------------------------------------------------------- *)

(* Fold the fast-path deltas of every epoch at or below [upto_epoch] into
   their chains (epoch order, install order within an epoch).  Each merge
   is at-most-once in the engine, so deltas an on-demand read already
   folded are skipped. *)
let merge_fast_deltas b ~upto_epoch =
  let inc = b.cur in
  List.iter
    (fun (epoch, items) ->
      Node.lnote b.node (fun l ->
          Obs.Ledger.note_fast_merges l ~node:b.node.node_id ~epoch
            ~count:(List.length items));
      List.iter
        (fun { Functor_cc.Processor.key; version } ->
          Functor_cc.Compute_engine.merge_delta inc.engine ~key ~version)
        items)
    (Functor_cc.Processor.drain inc.fast ~upto_epoch)

(* Epoch-close (and restart) release of buffered functor metadata: the
   closed epochs' items become one plan, dispatched to the worker pool in
   install order, [Config.cost_dispatch_us] each. *)
let release_closed b ~upto_epoch =
  let items =
    List.concat_map snd (Functor_cc.Processor.drain b.cur.processor ~upto_epoch)
  in
  let stats = Functor_cc.Planner.run b.cur.planner ~items in
  if stats.Functor_cc.Planner.nodes > 0 then begin
    Node.emit b.node ~txn:(-1) ~stage:Obs.Trace.Plan_build
      ~arg:stats.Functor_cc.Planner.nodes ();
    Node.lnote b.node (fun l ->
        Obs.Ledger.note_plan l ~node:b.node.node_id ~epoch:upto_epoch
          ~nodes:stats.Functor_cc.Planner.nodes
          ~edges:stats.Functor_cc.Planner.edges
          ~strata:stats.Functor_cc.Planner.strata)
  end;
  (* Fast-path deltas never enter a plan: fold the closed epochs'
     remainder directly.  Already-final records (folded by an on-demand
     read) are skipped by the engine. *)
  merge_fast_deltas b ~upto_epoch

(* How far the value watermark [v] (the youngest version every key of
   this partition is final up to) lags behind now, in µs; 0 before any
   functor finalises. *)
let watermark_lag_us b v =
  if v <= 0 then 0
  else
    let lag = now b - Ts.time_us (Ts.of_int v) in
    if lag > 0 then lag else 0

let note_close b l ~epoch =
  let wm =
    if b.node.be_down then -1 else Recovery.max_final_version b.cur.engine
  in
  Obs.Ledger.note_close l ~node:b.node.node_id ~epoch ~t_us:(now b)
    ~watermark:wm ~watermark_lag_us:(watermark_lag_us b wm)

(* ---- recovery ------------------------------------------------------------ *)

(* Rebuild batch tracking from a replayed log, so the recomputation
   re-drives the coordinators' Batch_done notifications (the pre-crash
   batch table was volatile).  Shared by restart recovery and replica
   promotion. *)
let reintegrate b ~partition ~entries =
  let inc = b.cur in
  let table = Functor_cc.Compute_engine.table inc.engine in
  let batch_of txn_id ~coordinator =
    match Txn_part_tbl.find_opt inc.batches (txn_id, partition) with
    | Some batch -> batch
    | None ->
        let batch = new_batch b.node (Net.Address.of_int coordinator) in
        Txn_part_tbl.replace inc.batches (txn_id, partition) batch;
        batch
  in
  let finals = Hashtbl.create 16 in
  List.iter
    (function
      | Wal.Log_install { key; version; epoch; txn_id; coordinator; fast; _ }
        -> (
          match Mvstore.Table.find_le table ~key ~version with
          | Some (v, record) when v = version -> (
              match record.Funct.state with
              | Funct.Pending _ when fast ->
                  (* Fast-path installs have no batch and send no
                     Batch_done — the coordinator committed at install
                     time; just re-park the delta for its lazy merge. *)
                  Functor_cc.Processor.buffer inc.fast ~epoch ~key ~version
              | Funct.Pending _ ->
                  Functor_cc.Processor.buffer inc.processor ~epoch ~key
                    ~version;
                  (* Rebuild the batch so the recomputation's finals
                     re-drive the coordinator's Batch_done. *)
                  let batch = batch_of txn_id ~coordinator in
                  batch.remaining <- batch.remaining + 1
              | Funct.Final _ ->
                  if not fast then Hashtbl.replace finals txn_id coordinator)
          | Some _ | None -> ())
      | Wal.Log_abort _ | Wal.Log_epoch_closed _ -> ())
    entries;
  (* Transactions recovered entirely final (immediate-final specs like
     VALUE): nothing will recompute, so repeat their Batch_done now — the
     ack for the pre-crash one may never have arrived, and the coordinator
     dedupes by partition either way.  Skipped when any functor of the txn
     is still pending here: its completion sends the (single)
     authoritative notification. *)
  Hashtbl.iter
    (fun txn_id coordinator ->
      if not (Txn_part_tbl.mem inc.batches (txn_id, partition)) then
        send_batch_done b.node inc
          (new_batch b.node (Net.Address.of_int coordinator))
          ~txn_id ~partition ~functors:0)
    finals

let replay b ~partition ~entries =
  Recovery.replay ~engine:b.cur.engine ~entries;
  reintegrate b ~partition ~entries

(* ---- storage access and probes ------------------------------------------- *)

let load_initial b ~key value =
  if not (owns b key) then
    invalid_arg "Server.load_initial: key not owned by this partition";
  Functor_cc.Compute_engine.load_initial b.cur.engine ~key value

let compute_queue_depth b =
  Functor_cc.Processor.buffered b.cur.processor
  + Sim.Worker_pool.queue_length b.node.pool

let inflight_functors b = Functor_cc.Compute_engine.pending_count b.cur.engine

let value_watermark_lag_us b =
  watermark_lag_us b (Recovery.max_final_version b.cur.engine)
