module Ts = Clocksync.Timestamp
module Value = Functor_cc.Value
module Funct = Functor_cc.Funct
module Key = Mvstore.Key

(* Frontend-side per-transaction completion tracking.  Install targets
   and Batch_done sources are tracked by PARTITION, not address: after a
   failover the promoted replica answers from a different address, and
   one server may hold batches of several partitions for the same
   transaction. *)
type track = {
  ts : Ts.t;
  epoch : int;
  issued_at : int;
  ack : Txn.ack_mode;
  reply : Txn.result -> unit;
  expected_dones : int;  (* one Batch_done per participant partition *)
  mutable awaiting_installs : int;
  mutable install_failed : bool;
  mutable acked_ok : int list;  (* partitions whose install ack was ok *)
  mutable install_done_at : int;
  mutable done_srcs : int list;
      (* partitions whose Batch_done arrived — a set, so duplicated
         messages cannot double-count *)
  mutable any_aborted : bool;
  mutable max_retrieved : int;
}

(* Backend-side per-transaction batch tracking: how many locally installed
   functors still await a final value. *)
type batch = {
  coordinator : Net.Address.t;
  mutable remaining : int;
  mutable batch_max_retrieved : int;
  mutable batch_aborted : bool;
}

(* Per-transaction server tables are keyed by transaction id, or by
   (transaction id, partition).  Ids are timestamps, whose low bits are a
   node id and a sequence number and whose varying bits sit high (see
   {!Clocksync.Timestamp}), so the hash folds the high bits down before
   the table masks off the low ones. *)
module Txn_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Sim.Bits.mix
end)

module Txn_part_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a, p) (b, q) = Int.equal a b && Int.equal p q
  let hash (txn_id, partition) = Sim.Bits.mix txn_id + partition
end)

(* ---- replication state -------------------------------------------------- *)

(* Cluster-level replication context, shared by all servers: the ship
   plane (a separate RPC instance so replication traffic cannot perturb
   the data plane's latency stream), the crash-aware routing table, and
   the static group layout. *)
type repl_ctx = {
  plane : Message.rpc;
  route : Net.Route.t;
  members_of : int -> Net.Address.t list;
}

(* Primary-side state for one partition this server currently leads. *)
type prim = {
  p_partition : int;
  p_wal : Wal.t;
  group : Repl.t;
  followers : Net.Address.t list;
  mutable shipped : int;  (* highest WAL seq shipped at least once *)
  mutable retry_armed : bool;
  mutable ship_log : (int * int * int * int) list;
      (* (member, seq, ship-time, epoch) of in-flight ships, newest
         first — ledger-only bookkeeping (empty unless a ledger is
         attached), matched against cumulative acks for WAL-ship lag *)
}

(* Follower-side state for one partition this server replicates but does
   not lead.  Shipped entries are logged to a local WAL (acks mean
   durable-here) and applied to the engine only at promotion. *)
type flw = {
  f_partition : int;
  mutable f_term : int;
  mutable f_wal : Wal.t;
  mutable f_applied : int;  (* contiguous prefix logged locally *)
  f_buf : (int, Wal.entry) Hashtbl.t;  (* out-of-order arrivals *)
  mutable f_ack_pending : bool;
}

type t = {
  sim : Sim.Engine.t;
  data : Message.rpc;
  address : Net.Address.t;
  node_id : int;
  clock : Clocksync.Node_clock.t;
  partition_of : Key.t -> int;
  addr_of_partition : int -> Net.Address.t;
  my_partition : int;
  config : Config.t;
  metrics : Sim.Metrics.t;
  obs : Obs.Ctl.t option;
  ledger : Obs.Ledger.t option;
      (* cached from [obs] at creation: the epoch-ledger emit sites cost
         one option test when no ledger is attached *)
  (* Hot-path metric handles, resolved once at creation (see DESIGN.md,
     "Hot paths and how to measure them"). *)
  m_noauth_starts : int ref;
  m_held : int ref;
  m_submitted_rw : int ref;
  m_submitted_ro : int ref;
  m_installed : int ref;
  m_committed : int ref;
  m_aborted_compute : int ref;
  m_aborted_install : int ref;
  m_functors_installed : int ref;
  m_precondition_failures : int ref;
  m_ro_completed : int ref;
  m_fastpath_commits : int ref;
  h_lat_total : Sim.Stats.Histogram.t;
  h_lat_install : Sim.Stats.Histogram.t;
  h_lat_wait : Sim.Stats.Histogram.t;
  h_lat_proc : Sim.Stats.Histogram.t;
  h_lat_ro : Sim.Stats.Histogram.t;
  h_lat_fastpath : Sim.Stats.Histogram.t;
  m_be_dropped : int ref;
  pool : Sim.Worker_pool.t;
  real_pool : Runtime.Pool.t option;
      (* worker-domain pool for --runtime real (shared cluster-wide);
         None under the default sim runtime *)
  ts_source : Clocksync.Ts_source.t;
  part : Epoch.Participant.t;
  registry : Functor_cc.Registry.t;
  mutable engine : Functor_cc.Compute_engine.t;
  mutable processor : Functor_cc.Processor.t;
  mutable fast : Functor_cc.Processor.t;
      (* fast-lane installs awaiting their lazy merge, by epoch.  The
         functors are already on their chains — reads fold them on demand
         through the engine's at-most-once discipline — and epoch close
         folds the remainder so the value watermark keeps advancing.
         Volatile: a crash wipes it, and reintegration rebuilds it from
         the WAL's [fast] entries *)
  mutable planner : Functor_cc.Planner.t;
  tracks : track Txn_tbl.t;  (* txn id -> frontend tracking *)
  batches : batch Txn_part_tbl.t;
      (* (txn_id, partition) -> batch: a server that adopted a partition
         can hold two batches of the same transaction *)
  install_verdicts : bool Txn_part_tbl.t;
      (* (txn_id, partition) -> install ack verdict, so retransmitted
         installs are answered idempotently (volatile: wiped by a crash) *)
  pending_dones : unit Txn_part_tbl.t;
      (* (txn_id, partition) pairs whose Batch_done awaits the
         coordinator's ack; drives the resend loop (volatile: wiped by a
         crash — recovery rebuilds the batch, and recomputation sends a
         fresh notification) *)
  held : (unit -> unit) Queue.t;
  mutable be_down : bool;
      (* backend role crashed: storage/compute requests are dropped until
         {!restart_be}; the frontend role and epoch participant stay up *)
  mutable last_closed_epoch : int;
  mutable delayed_reads : (int * (unit -> unit)) list;
      (* (epoch, run) — latest-version reads waiting for their epoch to
         close (§III-B) *)
  (* replication: with durability on, the home partition starts as a
     group of one (its WAL, no followers); everything else stays dormant
     until {!attach_repl}, which the cluster calls only when
     replicas > 1 *)
  mutable repl : repl_ctx option;
  prims : (int, prim) Hashtbl.t;
      (* partition -> primary-side state: every log this server leads *)
  flws : (int, flw) Hashtbl.t;  (* partition -> follower-side state *)
  mutable pending_closes : (int * bool ref * (unit -> unit)) list;
      (* closes deferred by the replication gate: (epoch, delivered,
         deliver).  A crash force-delivers them — the EM's grant made the
         close a cluster-global fact the FE side must honour. *)
  mutable on_crash : unit -> unit;
  mutable on_restart : unit -> unit;
      (* lifecycle hooks for the cluster's failure monitor *)
}

let addr t = t.address
let pool t = t.pool
let engine t = t.engine
let participant t = t.part
let clock t = t.clock
let held_requests t = Queue.length t.held
let be_down t = t.be_down

let now t = Sim.Engine.now t.sim

(* Lifecycle trace emit: one option test when tracing is off.  [ts]
   defaults to the current simulated time; Submit passes the original
   submission time explicitly (the transaction's id does not exist until
   its timestamp is acquired, so the event is emitted retroactively). *)
let emit t ~txn ~stage ?(ts = -1) ?arg () =
  match t.obs with
  | None -> ()
  | Some ctl ->
      let ts = if ts < 0 then now t else ts in
      Obs.Ctl.emit ctl ~txn ~stage ~node:t.node_id ~ts ?arg ()

(* Epoch-ledger emit: one option test when no ledger is attached. *)
let lnote t f = match t.ledger with None -> () | Some l -> f l

(* Data-plane call with periodic retransmission (config.retry_us).
   The first reply wins; the BE side answers duplicated requests
   idempotently.  With retries enabled, a lost request or reply turns into
   latency instead of a wedged transaction — which is what keeps the epoch
   in_flight barrier (and hence atomic commitment) live under message
   loss.  The destination is re-resolved from the partition on every
   attempt: after a failover the retries must chase the promoted
   replica, not the crashed primary's address. *)
let call_with_retry t ~partition req k =
  let period = t.config.Config.retry_us in
  if period <= 0 then
    Net.Rpc.call t.data ~src:t.address
      ~dst:(t.addr_of_partition partition)
      req k
  else begin
    let answered = ref false in
    let once resp =
      if not !answered then begin
        answered := true;
        k resp
      end
    in
    let rec attempt () =
      Net.Rpc.call t.data ~src:t.address
        ~dst:(t.addr_of_partition partition)
        req once;
      Sim.Engine.after t.sim period (fun () ->
          if not !answered then attempt ())
    in
    attempt ()
  end

(* ---- partition ownership ----------------------------------------------- *)

(* Which partitions this server currently serves as (primary) storage.
   Unreplicated: exactly its home partition, forever (its group of one is
   in [prims] only when durability is on).  Replicated: the partitions in
   [prims] — the home partition until a failover takes it away, plus any
   partition adopted by promotion. *)
let leads t ~partition =
  match t.repl with
  | None -> partition = t.my_partition
  | Some _ -> Hashtbl.mem t.prims partition

let owns t key = leads t ~partition:(t.partition_of key)

(* Guard of the keyed storage handlers: whether this server's backend is
   up and owns [key]; a request it cannot serve is dropped (and counted),
   and the sender's retry re-resolves the owner. *)
let serves t key =
  if (not t.be_down) && owns t key then true
  else begin
    incr t.m_be_dropped;
    false
  end

let current_prim t partition = Hashtbl.find_opt t.prims partition

(* Append to the partition's log and advance the group's replicated-log
   length, which is kept equal to the WAL entry count while the group
   has followers (checkpoints are disabled under replication so
   positions never shift). *)
let log_entry t ~partition entry =
  match current_prim t partition with
  | Some prim ->
      Wal.append prim.p_wal entry;
      ignore (Repl.append prim.group)
  | None -> ()

(* The epoch-close marker; on a replicated primary it doubles as the
   epoch's replication barrier. *)
let log_close_marker prim ~epoch =
  Wal.append prim.p_wal (Wal.Log_epoch_closed epoch);
  ignore (Repl.append prim.group);
  Repl.close_epoch prim.group ~epoch

(* ---- WAL shipping (primary side) ---------------------------------------- *)

let ship_entry_to t prim ~dst ~seq entry =
  match t.repl with
  | None -> ()
  | Some ctx ->
      emit t ~txn:(-1) ~stage:Obs.Trace.Wal_ship ~arg:seq ();
      lnote t (fun _ ->
          prim.ship_log <-
            ( Net.Address.to_int dst, seq, now t,
              Epoch.Participant.current_epoch t.part )
            :: prim.ship_log);
      Net.Rpc.send ctx.plane ~src:t.address ~dst
        (Message.One
           (Message.Wal_ship
              { partition = prim.p_partition;
                term = Repl.term prim.group;
                seq;
                entry }))

(* Ship the freshly durable suffix to every follower.  Called from the
   WAL flush hook, so a follower can never ack an entry the primary
   itself might still lose in a crash. *)
let ship_fresh t prim =
  let upto = Wal.durable_count prim.p_wal in
  if upto > prim.shipped then begin
    let range = Wal.durable_range prim.p_wal ~from:prim.shipped ~upto in
    List.iter
      (fun dst ->
        List.iter (fun (seq, e) -> ship_entry_to t prim ~dst ~seq e) range)
      prim.followers;
    prim.shipped <- upto
  end

let reship_member t prim ~member =
  let upto = Wal.durable_count prim.p_wal in
  let from = Repl.acked prim.group ~member:(Net.Address.to_int member) in
  List.iter
    (fun (seq, e) -> ship_entry_to t prim ~dst:member ~seq e)
    (Wal.durable_range prim.p_wal ~from ~upto)

(* Periodic retransmission to lagging followers (retry_us), running
   while any live follower is behind.  Stale timers are disarmed by the
   identity check: a demotion or re-adoption replaces the prim record. *)
let rec arm_retry t prim =
  let period = t.config.Config.retry_us in
  if period > 0 && not prim.retry_armed then begin
    prim.retry_armed <- true;
    Sim.Engine.after t.sim period (fun () ->
        prim.retry_armed <- false;
        match current_prim t prim.p_partition with
        | Some pr when pr == prim && not t.be_down ->
            let upto = Wal.durable_count prim.p_wal in
            let lagging = Repl.lagging_followers prim.group ~seq:upto in
            List.iter
              (fun (id, _) ->
                reship_member t prim ~member:(Net.Address.of_int id))
              lagging;
            if lagging <> [] || Repl.replica_lag prim.group > 0 then
              arm_retry t prim
        | Some _ | None -> ())
  end

(* Become the primary of [partition]'s group (term from the route, or 0
   for the group of one): register the prim and, when the group has
   followers, ship each flushed suffix to them. *)
let lead t ~partition ~term ~members ~wal ~len =
  let group =
    Repl.create ~partition ~term ~primary:(Net.Address.to_int t.address)
      ~members:(List.map Net.Address.to_int members)
      ~len
  in
  let prim =
    { p_partition = partition; p_wal = wal; group;
      followers =
        List.filter (fun a -> not (Net.Address.equal a t.address)) members;
      shipped = 0; retry_armed = false; ship_log = [] }
  in
  Hashtbl.replace t.prims partition prim;
  if prim.followers <> [] then
    Wal.set_on_flush wal (fun () ->
        match current_prim t partition with
        | Some pr when pr == prim && not t.be_down ->
            ship_fresh t pr;
            if Repl.replica_lag pr.group > 0 then arm_retry t pr
        | Some _ | None -> ());
  prim

(* ---- frontend: timestamp acquisition and held requests --------------- *)

let acquire t =
  match Epoch.Participant.window t.part with
  | None -> None
  | Some w -> (
      match Clocksync.Ts_source.next t.ts_source ~lo:w.lo ~hi:w.hi with
      | None -> None
      | Some ts ->
          if not w.Epoch.Participant.authorized then incr t.m_noauth_starts;
          Some (w, ts))

let hold t thunk =
  incr t.m_held;
  Queue.add thunk t.held

(* Run [k] with a usable timestamp window and a timestamp in it, holding
   the request until the next window when there is none. *)
let rec with_window t k =
  match acquire t with
  | Some (w, ts) -> k w ts
  | None -> hold t (fun () -> with_window t k)

let drain_held t =
  let n = Queue.length t.held in
  for _ = 1 to n do
    match Queue.take_opt t.held with Some thunk -> thunk () | None -> ()
  done

(* ---- reads ------------------------------------------------------------ *)

(* Execute a historical multi-key read at [version]: keys of a partition
   this server leads go through the local engine (charged to this
   server's pool), others through Get_req RPCs (charged at the owning
   BE). *)
let run_read t keys version reply =
  let n = List.length keys in
  if n = 0 then reply (Txn.Values [])
  else begin
    let results = Array.make n ("", None) in
    let remaining = ref n in
    let deliver i key v =
      results.(i) <- (Key.name key, v);
      decr remaining;
      if !remaining = 0 then reply (Txn.Values (Array.to_list results))
    in
    List.iteri
      (fun i key ->
        let key = Key.intern key in
        if owns t key && not t.be_down then
          Sim.Worker_pool.submit t.pool ~cost:t.config.cost_get_us (fun () ->
              Functor_cc.Compute_engine.get t.engine ~key ~version
                (fun v -> deliver i key v))
        else
          (* Remote partition — or our own backend while it is down, in
             which case the self-addressed request is dropped and retried
             until the restart answers it. *)
          call_with_retry t ~partition:(t.partition_of key)
            (Message.Req (Message.Get_req { key; version }))
            (function
              | Message.Get_resp v -> deliver i key v
              | Message.Install_ack _ | Message.Abort_ack ->
                  invalid_arg "run_read: protocol mismatch"))
      keys
  end

(* ---- frontend: read-write transactions ------------------------------- *)

(* Group the transaction's functors by owning partition.  Determinate
   operations additionally place a Dep_marker on each dependent key's
   partition (our realisation of §IV-E deferred writes).  A transaction
   touches a handful of partitions, so the groups are a short
   association list, not a table. *)
let groups_of_writes t writes =
  let groups = ref [] in
  let push partition entry =
    match List.assq_opt partition !groups with
    | Some r -> r := entry :: !r
    | None -> groups := (partition, ref [ entry ]) :: !groups
  in
  let reads_of = function
    | Txn.Call { read_set; _ } | Txn.Det { read_set; _ } -> read_set
    | Txn.Put _ | Txn.Delete | Txn.Add _ | Txn.Subtr _ | Txn.Max _
    | Txn.Min _ ->
        []
  in
  (* Intern every written key once; recipients and pushed reads are
     written keys, so they are found among these, not re-interned. *)
  let kwrites = List.map (fun (k, op) -> (Key.intern k, op)) writes in
  (* Recipient sets only arise when some functor reads a key other than
     its own; skip the quadratic scan for the common all-numeric case. *)
  let cross_reads =
    List.exists
      (fun (key, op) ->
        List.exists (fun rk -> not (String.equal rk (Key.name key)))
          (reads_of op))
      kwrites
  in
  let push_reads = t.config.push_opt && cross_reads in
  List.iter
    (fun (key, op) ->
      let key_partition = t.partition_of key in
      let recipients, pushed_reads =
        if not push_reads then ([], [])
        else
          ( (* Sibling functors reading this key, kept only when they
               live on other partitions: same-partition reads are local
               anyway, so pushing would only add overhead. *)
            List.filter_map
              (fun (wkey, wop) ->
                if
                  (not (Key.equal wkey key))
                  && List.exists (String.equal (Key.name key)) (reads_of wop)
                  && t.partition_of wkey <> key_partition
                then Some wkey
                else None)
              kwrites,
            (* Inverse of the recipient set: read-set keys of THIS functor
               that a sibling functor (on another partition) writes and
               will push. *)
            List.filter_map
              (fun rk ->
                match
                  List.find_opt
                    (fun (wkey, _) -> String.equal (Key.name wkey) rk)
                    kwrites
                with
                | Some (wkey, _)
                  when (not (Key.equal wkey key))
                       && t.partition_of wkey <> key_partition ->
                    Some wkey
                | Some _ | None -> None)
              (reads_of op) )
      in
      push key_partition
        (key, Message.fspec_of_op ~key ~recipients ~pushed_reads op);
      match op with
      | Txn.Det { dependents; _ } ->
          List.iter
            (fun dk ->
              let dk = Key.intern dk in
              push (t.partition_of dk)
                (dk, Message.fspec_dep_marker ~det_key:key))
            dependents
      | Txn.Put _ | Txn.Delete | Txn.Add _ | Txn.Subtr _ | Txn.Max _
      | Txn.Min _ | Txn.Call _ ->
          ())
    kwrites;
  List.map (fun (partition, entries) -> (partition, List.rev !entries)) !groups
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let record_commit_metrics t track completed_at =
  let install = track.install_done_at - track.issued_at in
  let wait =
    if track.max_retrieved > track.install_done_at then
      track.max_retrieved - track.install_done_at
    else 0
  in
  let proc_start =
    if track.max_retrieved > track.install_done_at then track.max_retrieved
    else track.install_done_at
  in
  let proc = if completed_at > proc_start then completed_at - proc_start else 0 in
  Sim.Stats.Histogram.add t.h_lat_total (completed_at - track.issued_at);
  Sim.Stats.Histogram.add t.h_lat_install install;
  Sim.Stats.Histogram.add t.h_lat_wait wait;
  Sim.Stats.Histogram.add t.h_lat_proc proc

let maybe_complete t track =
  if
    track.awaiting_installs = 0
    && (not track.install_failed)
    && List.length track.done_srcs = track.expected_dones
  then begin
    Txn_tbl.remove t.tracks (Ts.to_int track.ts);
    let completed_at = now t in
    record_commit_metrics t track completed_at;
    emit t ~txn:(Ts.to_int track.ts)
      ~stage:
        (if track.any_aborted then Obs.Trace.Aborted else Obs.Trace.Committed)
      ~arg:track.epoch ();
    lnote t (fun l ->
        if (not track.any_aborted) && Obs.Ledger.awaiting_first_commit l then
          Obs.Ledger.note_commit l ~node:t.node_id ~t_us:completed_at
            ~partitions:track.acked_ok);
    if track.any_aborted then begin
      incr t.m_aborted_compute;
      match track.ack with
      | Txn.Ack_on_computed ->
          track.reply (Txn.Aborted { ts = Some track.ts; stage = `Compute })
      | Txn.Ack_on_install ->
          (* Already acknowledged after the write-only phase; the client
             learns the outcome by reading any functor (§IV-A). *)
          ()
    end
    else begin
      incr t.m_committed;
      match track.ack with
      | Txn.Ack_on_computed -> track.reply (Txn.Committed { ts = track.ts })
      | Txn.Ack_on_install -> ()
    end
  end

let finish_write_phase t track =
  Epoch.Participant.txn_finished t.part ~epoch:track.epoch;
  track.install_done_at <- now t;
  incr t.m_installed;
  emit t ~txn:(Ts.to_int track.ts) ~stage:Obs.Trace.Functor_write
    ~arg:track.epoch ();
  (match track.ack with
  | Txn.Ack_on_install -> track.reply (Txn.Committed { ts = track.ts })
  | Txn.Ack_on_computed -> ());
  maybe_complete t track

(* Second round: roll back the write-only phase on every partition that
   acknowledged it (§IV-C "arbitrary abort", in-epoch case). *)
let abort_write_phase t track keys_by_partition =
  incr t.m_aborted_install;
  emit t ~txn:(Ts.to_int track.ts) ~stage:Obs.Trace.Aborted ~arg:track.epoch
    ();
  let aborted () =
    Txn_tbl.remove t.tracks (Ts.to_int track.ts);
    Epoch.Participant.txn_finished t.part ~epoch:track.epoch;
    track.reply (Txn.Aborted { ts = Some track.ts; stage = `Install })
  in
  let remaining = ref (List.length track.acked_ok) in
  if !remaining = 0 then aborted ()
  else
    List.iter
      (fun partition ->
        let keys = List.assoc partition keys_by_partition in
        call_with_retry t ~partition
          (Message.Req (Message.Abort_txn { ts = Ts.to_int track.ts; keys }))
          (fun _resp ->
            decr remaining;
            if !remaining = 0 then aborted ()))
      track.acked_ok

(* A transaction got its timestamp [ts] in [epoch]: trace its submission
   (at [submitted_at]) and assignment, and note it in the ledger. *)
let note_assigned t ts ~epoch ~submitted_at =
  let txn = Ts.to_int ts in
  emit t ~txn ~stage:Obs.Trace.Submit ~ts:submitted_at ();
  emit t ~txn ~stage:Obs.Trace.Epoch_assign ~arg:epoch ();
  lnote t (fun l -> Obs.Ledger.note_assigned l ~node:t.node_id ~epoch)

(* The write-only phase of both commit lanes: one install per partition
   group, each carrying the precondition keys that partition owns, with
   [on_ack partition ok] called on each partition's verdict.
   Coordination (transform + fan-out) costs FE CPU. *)
let send_installs t ~groups ~preconditions ~fast w ts on_ack =
  let txn = Ts.to_int ts in
  Sim.Worker_pool.submit t.pool ~cost:t.config.cost_coord_us (fun () ->
      List.iter
        (fun (partition, entries) ->
          let install =
            { Message.txn_id = txn;
              epoch = w.Epoch.Participant.epoch;
              ts = txn;
              lo = w.Epoch.Participant.lo;
              hi = w.Epoch.Participant.hi;
              writes = entries;
              preconditions =
                List.filter
                  (fun k -> t.partition_of k = partition)
                  preconditions;
              fast }
          in
          call_with_retry t ~partition
            (Message.Req (Message.Install install))
            (function
              | Message.Install_ack { ok } -> on_ack partition ok
              | Message.Get_resp _ | Message.Abort_ack ->
                  invalid_arg "install: protocol mismatch"))
        groups)

(* Coordination-free fast path.  The write set is all commutative
   built-ins (ADD/SUBTR/MAX/MIN) with no precondition keys, so any
   interleaving of such transactions on a chain converges to the same
   final values — the transaction needs no epoch-close ordering and
   commits as soon as every partition has installed (and, under
   [sync_acks], made durable on every live copy) its functors.  No track
   entry, no [Batch_done] round: the backends hold the functors as
   lazily-merged pending deltas. *)
let start_fast t ~groups reply w ts ~issued_at =
  let epoch = w.Epoch.Participant.epoch in
  let remaining = ref (List.length groups) in
  send_installs t ~groups ~preconditions:[] ~fast:true w ts (fun _ _ ->
      (* With no preconditions a fast install cannot be rejected; any
         [false] verdict is a stale duplicate answer and the installed
         functor is authoritative. *)
      decr remaining;
      if !remaining = 0 then begin
        Epoch.Participant.txn_finished t.part ~epoch;
        incr t.m_installed;
        incr t.m_committed;
        incr t.m_fastpath_commits;
        let latency = now t - issued_at in
        Sim.Stats.Histogram.add t.h_lat_total latency;
        Sim.Stats.Histogram.add t.h_lat_fastpath latency;
        emit t ~txn:(Ts.to_int ts) ~stage:Obs.Trace.Fastpath_commit
          ~arg:latency ();
        lnote t (fun l ->
            Obs.Ledger.note_fast_commit l ~node:t.node_id ~epoch;
            if Obs.Ledger.awaiting_first_commit l then
              Obs.Ledger.note_commit l ~node:t.node_id ~t_us:(now t)
                ~partitions:(List.map fst groups));
        reply (Txn.Committed { ts })
      end)

let start_rw t ~writes ~precondition_keys ~ack reply w ts ~submitted_at =
  let issued_at = now t in
  let epoch = w.Epoch.Participant.epoch in
  note_assigned t ts ~epoch ~submitted_at;
  Epoch.Participant.txn_started t.part ~epoch;
  let groups = groups_of_writes t writes in
  if
    t.config.Config.fastpath
    && Txn.all_commutative ~writes ~precondition_keys
  then start_fast t ~groups reply w ts ~issued_at
  else begin
    let track =
      { ts; epoch; issued_at; ack; reply;
        expected_dones = List.length groups;
        awaiting_installs = List.length groups; install_failed = false;
        acked_ok = []; install_done_at = issued_at; done_srcs = [];
        any_aborted = false; max_retrieved = issued_at }
    in
    Txn_tbl.replace t.tracks (Ts.to_int ts) track;
    if groups = [] then
      (* No writes, so nothing to install or compute: the transaction
         commits at once with its timestamp. *)
      finish_write_phase t track
    else
      let keys_by_partition =
        List.map (fun (p, entries) -> (p, List.map fst entries)) groups
      in
      send_installs t ~groups
        ~preconditions:(List.map Key.intern precondition_keys)
        ~fast:false w ts
        (fun partition ok ->
          track.awaiting_installs <- track.awaiting_installs - 1;
          if ok then track.acked_ok <- partition :: track.acked_ok
          else track.install_failed <- true;
          if track.awaiting_installs = 0 then
            if track.install_failed then
              abort_write_phase t track keys_by_partition
            else finish_write_phase t track)
  end

(* §III-B: a latest-version read gets a timestamp in the current epoch
   and is served as a historical read once that epoch closes. *)
let delay_ro t keys reply w ts =
  let issued_at = now t in
  let epoch = w.Epoch.Participant.epoch in
  note_assigned t ts ~epoch ~submitted_at:issued_at;
  let run () =
    run_read t keys (Ts.to_int ts) (fun result ->
        Sim.Stats.Histogram.add t.h_lat_ro (now t - issued_at);
        incr t.m_ro_completed;
        emit t ~txn:(Ts.to_int ts) ~stage:Obs.Trace.Read_served ~arg:epoch ();
        reply result)
  in
  t.delayed_reads <- (epoch, run) :: t.delayed_reads

let submit t req reply =
  match req with
  | Txn.Read_write { writes; precondition_keys; ack } ->
      incr t.m_submitted_rw;
      let submitted_at = now t in
      with_window t (fun w ts ->
          start_rw t ~writes ~precondition_keys ~ack reply w ts ~submitted_at)
  | Txn.Read_only { keys } ->
      incr t.m_submitted_ro;
      with_window t (fun w ts -> delay_ro t keys reply w ts)
  | Txn.Read_at { keys; version } -> run_read t keys version reply

(* ---- backend ----------------------------------------------------------- *)

let new_batch t coordinator =
  { coordinator; remaining = 0; batch_max_retrieved = now t;
    batch_aborted = false }

let send_batch_done t (b : batch) ~txn_id ~partition ~functors =
  let send () =
    Net.Rpc.send t.data ~src:t.address ~dst:b.coordinator
      (Message.One
         (Message.Batch_done
            { txn_id; partition; functors;
              max_retrieved_at = b.batch_max_retrieved;
              aborted = b.batch_aborted }))
  in
  send ();
  (* The notification is one-way, so a lossy network can eat it and wedge
     the coordinator; with retries configured it is repeated until the
     coordinator's Batch_done_ack clears it (the coordinator dedupes by
     partition). *)
  let period = t.config.Config.retry_us in
  if period > 0 then begin
    Txn_part_tbl.replace t.pending_dones (txn_id, partition) ();
    let rec again () =
      if (not t.be_down) && Txn_part_tbl.mem t.pending_dones (txn_id, partition)
      then begin
        send ();
        Sim.Engine.after t.sim period again
      end
    in
    Sim.Engine.after t.sim period again
  end

(* Answer an install or abort with [msg].  Under [sync_acks] a gated
   answer waits until the partition's log entries it covers are durable:
   flushed here and acked by every live follower of the group — so a
   committed transaction survives the loss of any single replica.  The
   replication sequence is captured NOW (right after this request's
   appends), not when the flush fires, so unrelated later traffic cannot
   inflate the gate.  A rejected install logged nothing and is answered
   at once. *)
let ack_logged t ~partition ~gated msg reply =
  let finish () = reply msg in
  match current_prim t partition with
  | Some prim when gated && t.config.Config.sync_acks ->
      let seq = Repl.len prim.group in
      Wal.after_durable prim.p_wal (fun () ->
          Repl.when_seq_acked prim.group ~seq finish)
  | Some _ | None -> finish ()

(* Fold the fast-path deltas of every epoch at or below [upto_epoch] into
   their chains (epoch order, install order within an epoch).  Each merge
   is at-most-once in the engine, so deltas an on-demand read already
   folded are skipped. *)
let merge_fast_deltas t ~upto_epoch =
  List.iter
    (fun (epoch, items) ->
      lnote t (fun l ->
          Obs.Ledger.note_fast_merges l ~node:t.node_id ~epoch
            ~count:(List.length items));
      List.iter
        (fun { Functor_cc.Processor.key; version } ->
          Functor_cc.Compute_engine.merge_delta t.engine ~key ~version)
        items)
    (Functor_cc.Processor.drain t.fast ~upto_epoch)

let do_install t ~src (inst : Message.install) reply =
  (* Every write of an install lives on one partition (the FE grouped
     them); a server that no longer leads it (demoted while the FE's
     routing was stale) must drop the request so the retry re-resolves. *)
  let first = fst (List.hd inst.writes) in
  if serves t first then
    let partition = t.partition_of first in
    match Txn_part_tbl.find_opt t.install_verdicts (inst.txn_id, partition) with
    | Some ok ->
        (* Retransmission of an install we already answered (the ack was
           lost): repeat the verdict, without re-applying anything. *)
        ack_logged t ~partition ~gated:ok (Message.Install_ack { ok }) reply
    | None ->
        let present key =
          match
            Mvstore.Table.find_le
              (Functor_cc.Compute_engine.table t.engine)
              ~key ~version:inst.ts
          with
          | Some _ -> true
          | None -> false
        in
        if not (List.for_all present inst.preconditions) then begin
          incr t.m_precondition_failures;
          Txn_part_tbl.replace t.install_verdicts (inst.txn_id, partition) false;
          ack_logged t ~partition ~gated:false
            (Message.Install_ack { ok = false })
            reply
        end
        else begin
          let lo = Ts.to_int (Ts.window_lo ~time_us:inst.lo) in
          let hi = Ts.to_int (Ts.window_hi ~time_us:inst.hi) in
          let b = new_batch t src in
          let installed = now t in
          List.iter
            (fun (key, spec) ->
              let record =
                Message.functor_of_fspec spec ~txn_id:inst.txn_id
                  ~coordinator:(Net.Address.to_int src)
              in
              match
                Functor_cc.Compute_engine.install t.engine ~key
                  ~version:inst.ts ~lo ~hi record
              with
              | Ok () -> (
                  incr t.m_functors_installed;
                  log_entry t ~partition
                    (Wal.Log_install
                       { key; version = inst.ts; spec;
                         txn_id = inst.txn_id;
                         coordinator = Net.Address.to_int src;
                         epoch = inst.epoch; fast = inst.fast });
                  match record.Funct.state with
                  | Funct.Pending p ->
                      p.Funct.installed_at_us <- installed;
                      if inst.fast then
                        (* Pre-committed at the coordinator: no epoch
                           batch, no Batch_done — the delta merges lazily
                           at the next read or epoch close. *)
                        Functor_cc.Processor.buffer t.fast
                          ~epoch:inst.epoch ~key ~version:inst.ts
                      else begin
                        b.remaining <- b.remaining + 1;
                        Functor_cc.Processor.buffer t.processor
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
            if b.remaining = 0 then
              send_batch_done t b ~txn_id:inst.txn_id ~partition
                ~functors:(List.length inst.writes)
            else Txn_part_tbl.replace t.batches (inst.txn_id, partition) b;
          Txn_part_tbl.replace t.install_verdicts (inst.txn_id, partition) true;
          ack_logged t ~partition ~gated:true
            (Message.Install_ack { ok = true })
            reply
        end

let do_abort t ~ts ~keys reply =
  match keys with
  | [] -> reply Message.Abort_ack
  | first :: _ ->
      if serves t first then begin
        let partition = t.partition_of first in
        List.iter
          (fun key ->
            log_entry t ~partition (Wal.Log_abort { key; version = ts });
            Functor_cc.Compute_engine.abort_version t.engine ~key ~version:ts)
          keys;
        ack_logged t ~partition ~gated:true Message.Abort_ack reply
      end

let on_batch_done t ~txn_id ~partition ~max_retrieved_at ~aborted =
  match Txn_tbl.find_opt t.tracks txn_id with
  | None -> ()  (* transaction already aborted in the write phase *)
  | Some track ->
      if not (List.mem partition track.done_srcs) then begin
        track.done_srcs <- partition :: track.done_srcs;
        emit t ~txn:txn_id ~stage:Obs.Trace.Batch_ack ~arg:track.epoch ();
        if aborted then track.any_aborted <- true;
        if max_retrieved_at > track.max_retrieved then
          track.max_retrieved <- max_retrieved_at;
        maybe_complete t track
      end

let on_functor_final t ~key ~pending ~final =
  let partition = t.partition_of key in
  match Txn_part_tbl.find_opt t.batches (pending.Funct.txn_id, partition) with
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
        Txn_part_tbl.remove t.batches (pending.Funct.txn_id, partition);
        send_batch_done t b ~txn_id:pending.Funct.txn_id ~partition
          ~functors:0
      end

(* How far the value watermark [v] (the youngest version every key of
   this partition is final up to) lags behind now, in µs; 0 before any
   functor finalises. *)
let watermark_lag_us t v =
  if v <= 0 then 0
  else
    let lag = now t - Ts.time_us (Ts.of_int v) in
    if lag > 0 then lag else 0

(* ---- engine (re)spawn -------------------------------------------------- *)

(* (Re)create the partition's compute engine, buffer and planner — at
   construction and again after a backend crash.  The outward-acting
   callbacks are guarded by a liveness check: continuations of the dead
   incarnation's in-flight computations may still fire after a crash, and
   must not leak pushes, dependent writes, or batch completions from
   volatile state that the crash destroyed. *)
let spawn_engine t =
  let me = ref t.engine in
  let live () = t.engine == !me in
  let strat_t0 = ref 0 in
  let callbacks =
    { Functor_cc.Compute_engine.is_local = (fun key -> owns t key);
      remote_get =
        (fun ~key ~version k ->
          if live () then
            call_with_retry t ~partition:(t.partition_of key)
              (Message.Req (Message.Get_req { key; version }))
              (function
                | Message.Get_resp v -> k v
                | Message.Install_ack _ | Message.Abort_ack ->
                    invalid_arg "remote_get: protocol mismatch"));
      send_push =
        (fun ~dst_key ~version ~src_key value ->
          if live () then begin
            let partition = t.partition_of dst_key in
            if leads t ~partition then
              Functor_cc.Compute_engine.deliver_push t.engine ~key:dst_key
                ~version ~src_key value
            else
              Net.Rpc.send t.data ~src:t.address
                ~dst:(t.addr_of_partition partition)
                (Message.One
                   (Message.Push { key = dst_key; version; src_key; value }))
          end);
      send_dep_write =
        (fun ~key ~version final ->
          if live () then begin
            let partition = t.partition_of key in
            if leads t ~partition then
              Functor_cc.Compute_engine.deliver_dep_write t.engine ~key
                ~version ~final
            else
              Net.Rpc.send t.data ~src:t.address
                ~dst:(t.addr_of_partition partition)
                (Message.One (Message.Dep_write { key; version; final }))
          end);
      notify_final =
        (fun ~key ~version:_ ~pending ~final ->
          if live () then begin
            emit t ~txn:pending.Funct.txn_id ~stage:Obs.Trace.Compute_done ();
            on_functor_final t ~key ~pending ~final
          end);
      exec =
        (fun ~cost k ->
          if live () then Sim.Worker_pool.submit t.pool ~cost k);
      now = (fun () -> Sim.Engine.now t.sim) }
  in
  let engine =
    Functor_cc.Compute_engine.create ~registry:t.registry ~callbacks
      ~compute_cost_us:t.config.Config.cost_compute_us ~metrics:t.metrics ()
  in
  me := engine;
  t.engine <- engine;
  (* The dispatch observer looks the functor's transaction id up in the
     table; the probe is only paid on traced runs. *)
  let on_dispatch =
    match t.obs with
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
                    emit t ~txn:p.Funct.txn_id ~stage:Obs.Trace.Compute_start
                      ()
                | Funct.Final _ -> ())
            | Some _ | None -> ())
  in
  t.processor <- Functor_cc.Processor.create ();
  t.fast <- Functor_cc.Processor.create ();
  (* Plan subscriptions push remote read-set values ahead of the reader,
     so they belong to the §IV-B push optimisation and follow its switch. *)
  let send_plan_sub =
    if not t.config.Config.push_opt then None
    else
      Some
        (fun ~key ~version ~dst_key ~dst_version ->
          if live () then
            Net.Rpc.send t.data ~src:t.address
              ~dst:(t.addr_of_partition (t.partition_of key))
              (Message.One
                 (Message.Plan_sub { key; version; dst_key; dst_version })))
  in
  t.planner <-
    Functor_cc.Planner.create ~engine ~pool:t.pool ?real:t.real_pool
      ~dispatch_cost_us:t.config.Config.cost_dispatch_us ~metrics:t.metrics
      ~is_local:(fun key -> owns t key)
      ?send_plan_sub
      ~now:(fun () -> Sim.Engine.now t.sim)
      ?on_dispatch
      ~on_stratum:(fun ~size ->
        (* The level batches of one plan run back-to-back on the
           orchestrating domain, so a single ref carries the wall-clock
           start from dispatch to the matching [on_stratum_done]. *)
        strat_t0 := Obs.Ledger.wall_us ();
        if live () then
          emit t ~txn:(-1) ~stage:Obs.Trace.Stratum_dispatch ~arg:size ())
      ?on_stratum_done:
        (match t.ledger with
        | None -> None
        | Some l ->
            Some
              (fun ~size ~workers ->
                if live () then
                  Obs.Ledger.note_stratum l ~node:t.node_id ~t0_us:!strat_t0
                    ~t1_us:(Obs.Ledger.wall_us ()) ~size ~workers))
      ~on_evaluated:(fun ~elapsed_us ->
        if live () then
          emit t ~txn:(-1) ~stage:Obs.Trace.Plan_evaluate ~arg:elapsed_us ())
      ()

(* Epoch-close (and restart) release of buffered functor metadata: the
   closed epochs' items become one plan, dispatched to the worker pool in
   install order, [cost_dispatch_us] each. *)
let release_closed t ~upto_epoch =
  let items =
    List.concat_map snd (Functor_cc.Processor.drain t.processor ~upto_epoch)
  in
  let stats = Functor_cc.Planner.run t.planner ~items in
  if stats.Functor_cc.Planner.nodes > 0 then begin
    emit t ~txn:(-1) ~stage:Obs.Trace.Plan_build
      ~arg:stats.Functor_cc.Planner.nodes ();
    lnote t (fun l ->
        Obs.Ledger.note_plan l ~node:t.node_id ~epoch:upto_epoch
          ~nodes:stats.Functor_cc.Planner.nodes
          ~edges:stats.Functor_cc.Planner.edges
          ~strata:stats.Functor_cc.Planner.strata
          ~critical_path:stats.Functor_cc.Planner.critical_path)
  end;
  (* Fast-path deltas never enter a plan: fold the closed epochs'
     remainder directly.  Already-final records (folded by an on-demand
     read) are skipped by the engine. *)
  merge_fast_deltas t ~upto_epoch

(* Rebuild backend batch tracking from a replayed log, so the
   recomputation re-drives the coordinators' Batch_done notifications
   (the pre-crash batch table was volatile).  Shared by restart recovery
   and replica promotion. *)
let reintegrate t ~partition ~entries =
  let table = Functor_cc.Compute_engine.table t.engine in
  let batch_of txn_id ~coordinator =
    match Txn_part_tbl.find_opt t.batches (txn_id, partition) with
    | Some b -> b
    | None ->
        let b = new_batch t (Net.Address.of_int coordinator) in
        Txn_part_tbl.replace t.batches (txn_id, partition) b;
        b
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
                  Functor_cc.Processor.buffer t.fast ~epoch ~key ~version
              | Funct.Pending _ ->
                  Functor_cc.Processor.buffer t.processor ~epoch ~key
                    ~version;
                  (* Rebuild the batch so the recomputation's finals
                     re-drive the coordinator's Batch_done. *)
                  let b = batch_of txn_id ~coordinator in
                  b.remaining <- b.remaining + 1
              | Funct.Final _ ->
                  if not fast then
                    Hashtbl.replace finals txn_id coordinator)
          | Some _ | None -> ())
      | Wal.Log_abort _ | Wal.Log_epoch_closed _ -> ())
    entries;
  (* Transactions recovered entirely final (immediate-final specs like
     VALUE): nothing will recompute, so repeat their Batch_done now —
     the ack for the pre-crash one may never have arrived, and the
     coordinator dedupes by partition either way.  Skipped when any
     functor of the txn is still pending here: its completion sends
     the (single) authoritative notification. *)
  Hashtbl.iter
    (fun txn_id coordinator ->
      if not (Txn_part_tbl.mem t.batches (txn_id, partition)) then
        send_batch_done t
          (new_batch t (Net.Address.of_int coordinator))
          ~txn_id ~partition ~functors:0)
    finals

(* ---- replication: epoch-close gating and pending closes ---------------- *)

(* Log the epoch-close marker on every partition this server leads. *)
let log_close_markers t ~epoch =
  Hashtbl.iter (fun _ prim -> log_close_marker prim ~epoch) t.prims

(* Crash: closes deferred by the replication gate are force-delivered —
   the EM's grant made them a cluster-global fact, and the Repl waiters
   that would have delivered them died with the process (Repl.crash).
   on_closed then runs under be_down and skips the backend-side work. *)
let fire_pending_closes t =
  let pending =
    List.sort
      (fun (a, _, _) (b, _, _) -> Int.compare a b)
      (List.filter (fun (_, d, _) -> not !d) t.pending_closes)
  in
  t.pending_closes <- [];
  List.iter (fun (_, _, deliver) -> deliver ()) pending

(* ---- construction ------------------------------------------------------ *)

let create ~sim ~data ~control ~addr ~node_id ~em ~clock ~partition_of
    ~addr_of_partition ~my_partition ~registry ~config ~metrics ?obs
    ?real_pool () =
  let pool = Sim.Worker_pool.create sim ~workers:config.Config.cores in
  let part =
    Epoch.Participant.create ~rpc:control ~addr ~em ~clock
      ~straggler_opt:config.Config.straggler_opt ~metrics ()
  in
  let ts_source = Clocksync.Ts_source.create clock ~node:node_id in
  (* Bootstrap: the engine's callbacks close over [t], and [t] holds the
     engine; break the cycle with a throwaway engine that is replaced
     before the simulation starts. *)
  let bootstrap_callbacks =
    { Functor_cc.Compute_engine.is_local = (fun _ -> true);
      remote_get = (fun ~key:_ ~version:_ k -> k None);
      send_push = (fun ~dst_key:_ ~version:_ ~src_key:_ _ -> ());
      send_dep_write = (fun ~key:_ ~version:_ _ -> ());
      notify_final = (fun ~key:_ ~version:_ ~pending:_ ~final:_ -> ());
      exec = (fun ~cost:_ k -> k ());
      now = (fun () -> 0) }
  in
  let bootstrap_engine =
    Functor_cc.Compute_engine.create ~registry
      ~callbacks:bootstrap_callbacks ~compute_cost_us:0 ~metrics ()
  in
  let c = Sim.Metrics.counter metrics in
  let h = Sim.Metrics.histogram metrics in
  let t =
    { sim; data; address = addr; node_id; clock; partition_of;
      addr_of_partition; my_partition; config; metrics; obs;
      ledger = (match obs with Some o -> Obs.Ctl.ledger o | None -> None);
      m_noauth_starts = c "aloha.noauth_starts";
      m_held = c "aloha.held";
      m_submitted_rw = c "aloha.submitted_rw";
      m_submitted_ro = c "aloha.submitted_ro";
      m_installed = c "aloha.installed";
      m_committed = c "aloha.committed";
      m_aborted_compute = c "aloha.aborted_compute";
      m_aborted_install = c "aloha.aborted_install";
      m_functors_installed = c "aloha.functors_installed";
      m_precondition_failures = c "aloha.precondition_failures";
      m_ro_completed = c "aloha.ro_completed";
      m_fastpath_commits = c "aloha.fastpath_commits";
      h_lat_total = h "aloha.lat_total_us";
      h_lat_install = h "aloha.lat_install_us";
      h_lat_wait = h "aloha.lat_wait_us";
      h_lat_proc = h "aloha.lat_proc_us";
      h_lat_ro = h "aloha.lat_ro_us";
      h_lat_fastpath = h "aloha.lat_fastpath_us";
      m_be_dropped = c "aloha.be_dropped";
      pool; real_pool; ts_source; part; registry;
      engine = bootstrap_engine;
      processor = Functor_cc.Processor.create ();
      fast = Functor_cc.Processor.create ();
      planner =
        Functor_cc.Planner.create ~engine:bootstrap_engine ~pool
          ~dispatch_cost_us:0 ~metrics ();
      tracks = Txn_tbl.create 1024;
      batches = Txn_part_tbl.create 1024;
      install_verdicts = Txn_part_tbl.create 1024;
      pending_dones = Txn_part_tbl.create 64;
      held = Queue.create ();
      be_down = false;
      last_closed_epoch = 0;
      delayed_reads = [];
      repl = None;
      prims = Hashtbl.create 4;
      flws = Hashtbl.create 4;
      pending_closes = [];
      on_crash = ignore;
      on_restart = ignore }
  in
  (* The home partition's log: a replication group of one, until
     {!attach_repl} gives it followers. *)
  if config.Config.durability then
    ignore
      (lead t ~partition:my_partition ~term:0 ~members:[ addr ]
         ~wal:(Wal.create sim ~flush_latency_us:config.Config.wal_flush_us ())
         ~len:0);
  spawn_engine t;
  Epoch.Participant.set_hooks part
    ~on_open:(fun ~epoch ~lo:_ ~hi:_ ->
      lnote t (fun l ->
          Obs.Ledger.note_open l ~node:t.node_id ~epoch ~t_us:(now t));
      drain_held t)
    ~on_closed:(fun ~epoch ->
      emit t ~txn:(-1) ~stage:Obs.Trace.Epoch_close ~arg:epoch ();
      if epoch > t.last_closed_epoch then t.last_closed_epoch <- epoch;
      (* The backend part of epoch close (log the close, plan the closed
         epochs' functors) is skipped while the backend is down; the
         restart releases everything up to [last_closed_epoch] instead.
         Under the replication gate the close markers were already logged
         by the gate itself (at grant time, before the barrier). *)
      if not t.be_down then begin
        if Option.is_none t.repl || not config.Config.sync_acks then
          log_close_markers t ~epoch;
        release_closed t ~upto_epoch:epoch
      end;
      lnote t (fun l ->
          let wm =
            if t.be_down then -1 else Recovery.max_final_version t.engine
          in
          Obs.Ledger.note_close l ~node:t.node_id ~epoch ~t_us:(now t)
            ~watermark:wm ~watermark_lag_us:(watermark_lag_us t wm);
          Hashtbl.iter
            (fun partition prim ->
              let live = List.length (Repl.live_followers prim.group) in
              Obs.Ledger.note_group l ~node:t.node_id ~epoch ~partition
                ~ack_floor:(Repl.len prim.group - Repl.replica_lag prim.group)
                ~live_followers:live ~degraded:(live = 0))
            t.prims;
          match t.real_pool with
          | Some p ->
              Obs.Ledger.note_pool l ~node:t.node_id ~epoch
                ~workers:(Runtime.Pool.worker_stats p)
          | None -> ());
      let ready, waiting =
        List.partition (fun (e, _) -> e <= epoch) t.delayed_reads
      in
      t.delayed_reads <- waiting;
      (* Fire in submission order. *)
      List.iter (fun (_, run) -> run ()) (List.rev ready));
  Epoch.Participant.on_state_change part (fun () -> drain_held t);
  (* Data-plane request handler: all BE work is charged to the pool. *)
  Net.Rpc.serve data addr (fun ~src wire ~reply ->
      match wire with
      | Message.Req (Message.Install inst) ->
          let cost =
            config.Config.cost_install_base_us
            + (List.length inst.writes * config.Config.cost_install_us)
          in
          Sim.Worker_pool.submit pool ~cost (fun () ->
              do_install t ~src inst reply)
      | Message.Req (Message.Abort_txn { ts; keys }) ->
          Sim.Worker_pool.submit pool ~cost:config.Config.cost_msg_us
            (fun () -> do_abort t ~ts ~keys reply)
      | Message.Req (Message.Get_req { key; version }) ->
          Sim.Worker_pool.submit pool ~cost:config.Config.cost_get_us
            (fun () ->
              if serves t key then
                Functor_cc.Compute_engine.get t.engine ~key ~version
                  (fun v ->
                    emit t ~txn:version ~stage:Obs.Trace.Read_served ();
                    reply (Message.Get_resp v)))
      | Message.One _ -> ());
  Net.Rpc.serve_oneway data addr (fun ~src wire ->
      match wire with
      | Message.One
          ( Message.Push { key; version; src_key; value }
          | Message.Plan_push { key; version; src_key; value } ) ->
          Sim.Worker_pool.submit pool ~cost:config.Config.cost_msg_us
            (fun () ->
              if serves t key then
                Functor_cc.Compute_engine.deliver_push t.engine ~key ~version
                  ~src_key value)
      | Message.One (Message.Dep_write { key; version; final }) ->
          Sim.Worker_pool.submit pool ~cost:config.Config.cost_msg_us
            (fun () ->
              if serves t key then
                Functor_cc.Compute_engine.deliver_dep_write t.engine ~key
                  ~version ~final)
      | Message.One (Message.Batch_done { txn_id; partition; functors = _;
                                          max_retrieved_at; aborted }) ->
          (* Frontend-role message: processed even while the backend role
             is down.  Always acked — including duplicates of an already
             completed transaction — so the sender's resend loop stops. *)
          on_batch_done t ~txn_id ~partition ~max_retrieved_at ~aborted;
          Net.Rpc.send t.data ~src:t.address ~dst:src
            (Message.One (Message.Batch_done_ack { txn_id; partition }))
      | Message.One (Message.Batch_done_ack { txn_id; partition }) ->
          Txn_part_tbl.remove t.pending_dones (txn_id, partition)
      | Message.One (Message.Plan_sub { key; version; dst_key; dst_version })
        ->
          (* A remote plan wants this key's value pushed to one of its
             nodes: evaluate (on demand, through the engine's at-most-once
             discipline) and push the value back.  Charged like a Get. *)
          Sim.Worker_pool.submit pool ~cost:config.Config.cost_get_us
            (fun () ->
              if serves t key then
                Functor_cc.Compute_engine.get t.engine ~key ~version
                  (fun value ->
                    Net.Rpc.send t.data ~src:t.address ~dst:src
                      (Message.One
                         (Message.Plan_push
                            { key = dst_key; version = dst_version;
                              src_key = key; value }))))
      | Message.One (Message.Wal_ship _)
      | Message.One (Message.Ship_ack _) ->
          (* replication traffic travels on its own plane *)
          ()
      | Message.Req _ -> ());
  t

let load_initial t ~key value =
  let key = Key.intern key in
  if not (owns t key) then
    invalid_arg "Server.load_initial: key not owned by this partition";
  Functor_cc.Compute_engine.load_initial t.engine ~key value

let wal t =
  Option.map (fun prim -> prim.p_wal) (current_prim t t.my_partition)

(* ---- gauge probes (observability) -------------------------------------- *)

let compute_queue_depth t =
  Functor_cc.Processor.buffered t.processor
  + Sim.Worker_pool.queue_length t.pool

let inflight_functors t = Functor_cc.Compute_engine.pending_count t.engine

let value_watermark_lag_us t =
  watermark_lag_us t (Recovery.max_final_version t.engine)

let wal_pending_bytes t =
  Hashtbl.fold (fun _ p acc -> acc + Wal.pending_bytes p.p_wal) t.prims 0
  + Hashtbl.fold (fun _ f acc -> acc + Wal.pending_bytes f.f_wal) t.flws 0

let replication_lag t =
  Hashtbl.fold (fun _ prim acc -> acc + Repl.replica_lag prim.group) t.prims 0

(* Take a checkpoint now.  Meaningful when no functor is pending (e.g.
   quiesced between epochs): everything below the snapshot becomes
   recoverable without replay. *)
let checkpoint_now t =
  match (t.repl, current_prim t t.my_partition) with
  | Some _, _ ->
      (* A checkpoint renumbers the log, but WAL positions are the
         replication ship sequence. *)
      invalid_arg "Server.checkpoint_now: unsupported under replication"
  | None, None -> invalid_arg "Server.checkpoint_now: durability disabled"
  | None, Some prim ->
      let snapshot = Recovery.snapshot_of_engine t.engine in
      let retain_above = Recovery.max_final_version t.engine in
      Wal.checkpoint prim.p_wal ~snapshot ~retain_above

(* ---- replication: ship plane handlers ----------------------------------- *)

(* Follower acks are cumulative and sent only once the received prefix is
   durable in the follower's own WAL — so an acked entry survives the
   follower's crash too, which is what makes the primary's gating floor
   mean "on stable storage at every live replica". *)
let schedule_ack t f ~dst =
  match t.repl with
  | None -> ()
  | Some ctx ->
      if not f.f_ack_pending then begin
        f.f_ack_pending <- true;
        let wal = f.f_wal in
        Wal.after_durable wal (fun () ->
            (* a term wipe replaced the log: this ack belongs to the dead
               one and must not be attributed to the new primary's *)
            if f.f_wal == wal then begin
              f.f_ack_pending <- false;
              if not t.be_down then
                Net.Rpc.send ctx.plane ~src:t.address ~dst
                  (Message.One
                     (Message.Ship_ack
                        { partition = f.f_partition; term = f.f_term;
                          seq = Wal.durable_count wal }))
            end)
      end

(* Log the buffered entries that extend the follower's contiguous
   prefix. *)
let rec drain_shipped f =
  match Hashtbl.find_opt f.f_buf (f.f_applied + 1) with
  | Some e ->
      Hashtbl.remove f.f_buf (f.f_applied + 1);
      Wal.append f.f_wal e;
      f.f_applied <- f.f_applied + 1;
      drain_shipped f
  | None -> ()

let on_wal_ship t ~src ~partition ~term ~seq ~entry =
  if not t.be_down then
    match Hashtbl.find_opt t.flws partition with
    | None -> ()  (* not (or no longer) a follower of this partition *)
    | Some f ->
        if term >= f.f_term then begin
          if term > f.f_term then begin
            (* A new primary took over.  Our log may contain entries the
               new primary never acked and has replaced; there is no
               truncation protocol — discard and rebuild from seq 1. *)
            f.f_term <- term;
            f.f_wal <-
              Wal.create t.sim
                ~flush_latency_us:t.config.Config.wal_flush_us ();
            f.f_applied <- 0;
            Hashtbl.reset f.f_buf;
            f.f_ack_pending <- false
          end;
          (* Log the contiguous prefix; later entries wait in the buffer
             for the gap to fill (ship messages can reorder).  The buffer
             never holds the next entry, so an in-order entry goes
             straight to the log. *)
          if seq = f.f_applied + 1 then begin
            Wal.append f.f_wal entry;
            f.f_applied <- seq;
            drain_shipped f
          end
          else if seq > f.f_applied && not (Hashtbl.mem f.f_buf seq) then
            Hashtbl.replace f.f_buf seq entry;
          (* Re-acking a duplicate is deliberate: after the primary loses
             its ack bookkeeping (crash) it re-ships, and the cumulative
             ack re-establishes the floor. *)
          schedule_ack t f ~dst:src
        end

let on_ship_ack t ~src ~partition ~term ~seq =
  if not t.be_down then
    match current_prim t partition with
    | Some prim when Repl.term prim.group = term ->
        Repl.ack prim.group ~member:(Net.Address.to_int src) ~seq;
        lnote t (fun l ->
            (* The ack is cumulative: every outstanding ship to this
               member at or below [seq] is confirmed now. *)
            let m = Net.Address.to_int src in
            let acked, still =
              List.partition
                (fun (member, s, _, _) -> member = m && s <= seq)
                prim.ship_log
            in
            prim.ship_log <- still;
            List.iter
              (fun (_, _, sent, epoch) ->
                Obs.Ledger.note_ship_lag l ~node:t.node_id ~epoch
                  ~partition ~lag_us:(now t - sent))
              acked)
    | Some _ | None -> ()  (* stale term: ack for a deposed primary's log *)

(* ---- replication: wiring ------------------------------------------------ *)

let set_lifecycle_hooks t ~on_crash ~on_restart =
  t.on_crash <- on_crash;
  t.on_restart <- on_restart

(* Follow [partition] from an empty log under [term]. *)
let new_follower t ~partition ~term =
  Hashtbl.replace t.flws partition
    { f_partition = partition;
      f_term = term;
      f_wal =
        Wal.create t.sim ~flush_latency_us:t.config.Config.wal_flush_us ();
      f_applied = 0;
      f_buf = Hashtbl.create 16;
      f_ack_pending = false }

let attach_repl t ~plane ~route ~members_of ~follows =
  if t.repl <> None then invalid_arg "Server.attach_repl: already attached";
  let home =
    match current_prim t t.my_partition with
    | Some prim -> prim
    | None -> invalid_arg "Server.attach_repl: durability required"
  in
  t.repl <- Some { plane; route; members_of };
  (* The home partition's group of one becomes the real group, on the
     same log. *)
  ignore
    (lead t ~partition:t.my_partition
       ~term:(Net.Route.term route ~partition:t.my_partition)
       ~members:(members_of t.my_partition) ~wal:home.p_wal
       ~len:(Repl.len home.group));
  (* Follower of every other partition whose group includes us. *)
  List.iter
    (fun partition ->
      new_follower t ~partition ~term:(Net.Route.term route ~partition))
    follows;
  (* Ship-plane handlers run off the worker pool: replication bookkeeping
     is modelled as free, so the data-plane timeline is not perturbed. *)
  Net.Rpc.serve_oneway plane t.address (fun ~src wire ->
      match wire with
      | Message.One (Message.Wal_ship { partition; term; seq; entry }) ->
          on_wal_ship t ~src ~partition ~term ~seq ~entry
      | Message.One (Message.Ship_ack { partition; term; seq }) ->
          on_ship_ack t ~src ~partition ~term ~seq
      | Message.One _ | Message.Req _ -> ());
  if t.config.Config.sync_acks then begin
    (* Sync mode: an epoch may close (advancing the value watermark past
       its blind writes) only once its close marker — and with it every
       entry of the epoch — is durable on all live replicas of every
       partition this server leads.  The close markers are logged HERE,
       at grant time, so the barrier they define exists before the gate
       waits on it; on_open for the next epoch is never delayed. *)
    Epoch.Participant.set_close_gate t.part (fun ~epoch fire ->
        if t.be_down || Hashtbl.length t.prims = 0 then fire ()
        else begin
          let prims = Hashtbl.fold (fun _ p acc -> p :: acc) t.prims [] in
          List.iter (fun prim -> log_close_marker prim ~epoch) prims;
          let entered = now t in
          let delivered = ref false in
          let deliver () =
            if not !delivered then begin
              delivered := true;
              lnote t (fun l ->
                  let wait_us = now t - entered in
                  List.iter
                    (fun prim ->
                      Obs.Ledger.note_gate_wait l ~node:t.node_id ~epoch
                        ~partition:prim.p_partition ~wait_us)
                    prims);
              fire ()
            end
          in
          t.pending_closes <-
            (epoch, delivered, deliver)
            :: List.filter (fun (_, d, _) -> not !d) t.pending_closes;
          let remaining = ref (List.length prims) in
          List.iter
            (fun prim ->
              Repl.when_epoch_durable prim.group ~epoch (fun () ->
                  decr remaining;
                  if !remaining <= 0 then deliver ()))
            prims
        end)
  end

(* Failure-monitor verdicts, delivered by the cluster: exclude a crashed
   follower from (or re-admit a restarted one to) the gating floor of a
   group this server leads. *)
let note_member_down t ~partition ~member =
  match current_prim t partition with
  | Some prim -> Repl.member_down prim.group ~id:(Net.Address.to_int member)
  | None -> ()

let note_member_rejoin t ~partition ~member =
  match current_prim t partition with
  | Some prim ->
      Repl.member_rejoin prim.group ~id:(Net.Address.to_int member);
      (* Re-ship immediately — the rejoiner acks from zero — and keep the
         retry loop armed until it has caught up. *)
      if not t.be_down then reship_member t prim ~member;
      arm_retry t prim
  | None -> ()

(* ---- backend crash / restart ------------------------------------------- *)

let crash_be t =
  if t.be_down then invalid_arg "Server.crash_be: backend already down";
  t.be_down <- true;
  Sim.Metrics.incr t.metrics "aloha.be_crashes";
  (* The unflushed WAL tail is gone; so is all volatile state: batches,
     the install-verdict cache, and the engine (a fresh empty one replaces
     it immediately, which also cuts off — via the spawn liveness guard —
     any continuation of the dead incarnation still in flight). *)
  Hashtbl.iter
    (fun _ prim ->
      ignore (Wal.lose_unflushed prim.p_wal);
      (* Truncate the replicated log to the durable prefix and drop the
         gates whose replies died with the process. *)
      Repl.crash prim.group ~durable_len:(Wal.durable_count prim.p_wal))
    t.prims;
  Hashtbl.iter
    (fun _ f ->
      ignore (Wal.lose_unflushed f.f_wal);
      Hashtbl.reset f.f_buf;
      f.f_applied <- Wal.durable_count f.f_wal;
      f.f_ack_pending <- false)
    t.flws;
  fire_pending_closes t;
  Txn_part_tbl.reset t.batches;
  Txn_part_tbl.reset t.install_verdicts;
  Txn_part_tbl.reset t.pending_dones;
  spawn_engine t;
  lnote t (fun l ->
      Obs.Ledger.note_event l ~kind:Obs.Ledger.Crash ~node:t.node_id
        ~t_us:(now t) ());
  t.on_crash ()

(* Re-join a partition this server lost while down: the routing table
   says someone else leads it now.  Become a follower with an empty log;
   the new primary's shipments (a higher term) rebuild it from seq 1. *)
let demote t ~partition =
  Hashtbl.remove t.prims partition;
  Sim.Metrics.incr t.metrics "aloha.demotions";
  new_follower t ~partition ~term:0

let restart_be t =
  if not t.be_down then invalid_arg "Server.restart_be: backend is up";
  Sim.Metrics.incr t.metrics "aloha.be_restarts";
  (* Partitions promoted away while we were down: rejoin as followers. *)
  (match t.repl with
  | None -> ()
  | Some ctx ->
      let led = Hashtbl.fold (fun p _ acc -> p :: acc) t.prims [] in
      List.iter
        (fun p ->
          if
            not
              (Net.Address.equal
                 (Net.Route.resolve ctx.route ~partition:p)
                 t.address)
          then demote t ~partition:p)
        led);
  (* The rest we still lead: recover them from our own durable logs.
     Replayed installs that are still pending re-enter the processor at
     their logged epoch; epochs that closed while we were down (or before
     the crash) are then released for recomputation — the epoch-close
     work the crash made us miss.  Later epochs stay buffered until their
     own close.  Without a log the backend restarts empty. *)
  Hashtbl.iter
    (fun p prim ->
      ignore (Recovery.rebuild ~engine:t.engine ~wal:prim.p_wal);
      reintegrate t ~partition:p ~entries:(Wal.durable prim.p_wal))
    t.prims;
  if Hashtbl.length t.prims > 0 then
    release_closed t ~upto_epoch:t.last_closed_epoch;
  t.be_down <- false;
  (* Follower acks are volatile on both sides: re-ship everything and let
     the cumulative acks re-establish the floor. *)
  Hashtbl.iter
    (fun _ prim ->
      if prim.followers <> [] then begin
        prim.shipped <- 0;
        ship_fresh t prim;
        arm_retry t prim
      end)
    t.prims;
  t.on_restart ();
  lnote t (fun l ->
      Obs.Ledger.note_event l ~kind:Obs.Ledger.Restart ~node:t.node_id
        ~t_us:(now t) ())

(* Promotion: the failure monitor decided this server succeeds the
   crashed primary of [partition].  The shipped log IS the partition
   (state = checkpoint-free replay of it): re-install every entry into
   the local engine, re-buffer still-pending functors at their logged
   epochs, rebuild batch tracking so recomputation re-notifies the
   coordinators, and start shipping to the remaining followers under the
   new term.  The caller must already have updated the route (so [term]
   reads the post-promotion value and frontends re-resolve here). *)
let adopt_partition t ~partition ~down =
  match t.repl with
  | None -> invalid_arg "Server.adopt_partition: replication not attached"
  | Some ctx ->
      if not (Hashtbl.mem t.prims partition) then begin
        let f =
          match Hashtbl.find_opt t.flws partition with
          | Some f -> f
          | None -> invalid_arg "Server.adopt_partition: not a follower"
        in
        Hashtbl.remove t.flws partition;
        Sim.Metrics.incr t.metrics "aloha.promotions";
        emit t ~txn:(-1) ~stage:Obs.Trace.Promote ~arg:partition ();
        lnote t (fun l ->
            Obs.Ledger.note_event l ~kind:Obs.Ledger.Promote ~node:t.node_id
              ~t_us:(now t) ~partition ());
        (* The follower did not crash, so its buffered WAL tail is still
           valid — replay all of it, not just the durable prefix. *)
        let entries = Wal.all f.f_wal in
        ignore (Recovery.replay ~engine:t.engine ~snapshot:[] ~entries);
        reintegrate t ~partition ~entries;
        let prim =
          lead t ~partition ~term:(Net.Route.term ctx.route ~partition)
            ~members:(ctx.members_of partition) ~wal:f.f_wal
            ~len:(List.length entries)
        in
        List.iter
          (fun a -> Repl.member_down prim.group ~id:(Net.Address.to_int a))
          down;
        (* Epochs closed so far are durable by adoption (this replica has
           them); future closes barrier at the log positions they reach. *)
        Repl.close_epoch prim.group ~epoch:t.last_closed_epoch;
        (* Pendings recovered from epochs that already closed are released
           for recomputation right away. *)
        release_closed t ~upto_epoch:t.last_closed_epoch;
        ship_fresh t prim;
        arm_retry t prim
      end
