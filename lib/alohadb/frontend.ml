module Ts = Clocksync.Timestamp
module Key = Mvstore.Key
module Txn_tbl = Node.Txn_tbl

type t = {
  node : Node.t;
  backend : Backend.t;
  ts_source : Clocksync.Ts_source.t;
  tracks : Tracker.t Txn_tbl.t;  (* txn id -> coordinated-lane tracking *)
  held : (unit -> unit) Queue.t;
  mutable delayed_reads : (int * (unit -> unit)) list;
      (* (epoch, run) — latest-version reads waiting for their epoch to
         close (§III-B) *)
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
  m_ro_completed : int ref;
  m_fastpath_commits : int ref;
  h_lat_total : Sim.Stats.Histogram.t;
  h_lat_install : Sim.Stats.Histogram.t;
  h_lat_wait : Sim.Stats.Histogram.t;
  h_lat_proc : Sim.Stats.Histogram.t;
  h_lat_ro : Sim.Stats.Histogram.t;
  h_lat_fastpath : Sim.Stats.Histogram.t;
}

let create ~node ~backend =
  let c = Sim.Metrics.counter node.Node.metrics in
  let h = Sim.Metrics.histogram node.metrics in
  { node; backend;
    ts_source = Clocksync.Ts_source.create node.clock ~node:node.node_id;
    tracks = Txn_tbl.create 1024;
    held = Queue.create ();
    delayed_reads = [];
    m_noauth_starts = c "aloha.noauth_starts";
    m_held = c "aloha.held";
    m_submitted_rw = c "aloha.submitted_rw";
    m_submitted_ro = c "aloha.submitted_ro";
    m_installed = c "aloha.installed";
    m_committed = c "aloha.committed";
    m_aborted_compute = c "aloha.aborted_compute";
    m_aborted_install = c "aloha.aborted_install";
    m_ro_completed = c "aloha.ro_completed";
    m_fastpath_commits = c "aloha.fastpath_commits";
    h_lat_total = h "aloha.lat_total_us";
    h_lat_install = h "aloha.lat_install_us";
    h_lat_wait = h "aloha.lat_wait_us";
    h_lat_proc = h "aloha.lat_proc_us";
    h_lat_ro = h "aloha.lat_ro_us";
    h_lat_fastpath = h "aloha.lat_fastpath_us" }

let now f = Node.now f.node
let held_requests f = Queue.length f.held

(* ---- timestamp acquisition and held requests ---------------------------- *)

let acquire f =
  match Epoch.Participant.window f.node.part with
  | None -> None
  | Some w -> (
      match Clocksync.Ts_source.next f.ts_source ~lo:w.lo ~hi:w.hi with
      | None -> None
      | Some ts ->
          if not w.Cores.Auth.authorized then incr f.m_noauth_starts;
          Some (w, ts))

let hold f thunk =
  incr f.m_held;
  Queue.add thunk f.held

(* Run [k] with a usable timestamp window and a timestamp in it, holding
   the request until the next window when there is none. *)
let rec with_window f k =
  match acquire f with
  | Some (w, ts) -> k w ts
  | None -> hold f (fun () -> with_window f k)

let drain_held f =
  let n = Queue.length f.held in
  for _ = 1 to n do
    match Queue.take_opt f.held with Some thunk -> thunk () | None -> ()
  done

(* ---- reads --------------------------------------------------------------- *)

(* Execute a historical multi-key read at [version]: keys of a partition
   this server's backend serves go through its engine, others through the
   owning backend. *)
let run_read f keys version reply =
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
        Backend.read f.backend ~key ~version (fun v -> deliver i key v))
      keys
  end

(* §III-B: a latest-version read gets a timestamp in the current epoch
   and is served as a historical read once that epoch closes. *)
let note_assigned f ts ~epoch ~submitted_at =
  let txn = Ts.to_int ts in
  Node.emit f.node ~txn ~stage:Obs.Trace.Submit ~ts:submitted_at ();
  Node.emit f.node ~txn ~stage:Obs.Trace.Epoch_assign ~arg:epoch ();
  Node.lnote f.node (fun l ->
      Obs.Ledger.note_assigned l ~node:f.node.node_id ~epoch)

let delay_ro f keys reply w ts =
  let issued_at = now f in
  let epoch = w.Cores.Auth.epoch in
  note_assigned f ts ~epoch ~submitted_at:issued_at;
  let run () =
    run_read f keys (Ts.to_int ts) (fun result ->
        Sim.Stats.Histogram.add f.h_lat_ro (now f - issued_at);
        incr f.m_ro_completed;
        Node.emit f.node ~txn:(Ts.to_int ts) ~stage:Obs.Trace.Read_served
          ~arg:epoch ();
        reply result)
  in
  f.delayed_reads <- (epoch, run) :: f.delayed_reads

(* Serve the delayed reads whose epoch closed, in submission order. *)
let release_reads f ~epoch =
  let ready, waiting =
    List.partition (fun (e, _) -> e <= epoch) f.delayed_reads
  in
  f.delayed_reads <- waiting;
  List.iter (fun (_, run) -> run ()) (List.rev ready)

(* ---- read-write transactions --------------------------------------------- *)

(* Group the transaction's functors by owning partition.  Determinate
   operations additionally place a Dep_marker on each dependent key's
   partition (our realisation of §IV-E deferred writes).  A transaction
   touches a handful of partitions, so the groups are a short association
   list, not a table. *)
let groups_of_writes f writes =
  let partition_of = f.node.partition_of in
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
  let push_reads = f.node.config.Config.push_opt && cross_reads in
  List.iter
    (fun (key, op) ->
      let key_partition = partition_of key in
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
                  && partition_of wkey <> key_partition
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
                       && partition_of wkey <> key_partition ->
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
              push (partition_of dk)
                (dk, Message.fspec_dep_marker ~det_key:key))
            dependents
      | Txn.Put _ | Txn.Delete | Txn.Add _ | Txn.Subtr _ | Txn.Max _
      | Txn.Min _ | Txn.Call _ ->
          ())
    kwrites;
  List.map (fun (partition, entries) -> (partition, List.rev !entries)) !groups
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* The Figure-10 stages: installing, waiting for a processor, processing. *)
let record_commit_metrics f (tr : Tracker.t) completed_at =
  let proc_start = Int.max tr.max_retrieved tr.install_done_at in
  Sim.Stats.Histogram.add f.h_lat_total (completed_at - tr.issued_at);
  Sim.Stats.Histogram.add f.h_lat_install (tr.install_done_at - tr.issued_at);
  Sim.Stats.Histogram.add f.h_lat_wait (proc_start - tr.install_done_at);
  Sim.Stats.Histogram.add f.h_lat_proc (Int.max 0 (completed_at - proc_start))

let completed f (tr : Tracker.t) ~aborted =
  let ts = tr.ts in
  Txn_tbl.remove f.tracks (Ts.to_int ts);
  let completed_at = now f in
  record_commit_metrics f tr completed_at;
  Node.emit f.node ~txn:(Ts.to_int ts)
    ~stage:(if aborted then Obs.Trace.Aborted else Obs.Trace.Committed)
    ~arg:tr.epoch ();
  Node.lnote f.node (fun l ->
      if (not tr.any_aborted) && Obs.Ledger.awaiting_first_commit l then
        Obs.Ledger.note_commit l ~node:f.node.node_id ~t_us:completed_at
          ~partitions:tr.acked_ok);
  if aborted then begin
    incr f.m_aborted_compute;
    tr.reply (Txn.Aborted { ts = Some ts; stage = `Compute })
  end
  else begin
    incr f.m_committed;
    tr.reply (Txn.Committed { ts })
  end

let complete f tr =
  match Tracker.verdict tr with
  | Tracker.Open -> ()
  | Tracker.Committed -> completed f tr ~aborted:false
  | Tracker.Aborted -> completed f tr ~aborted:true

let finish_write_phase f (tr : Tracker.t) =
  Epoch.Participant.txn_finished f.node.part ~epoch:tr.epoch;
  incr f.m_installed;
  Node.emit f.node ~txn:(Ts.to_int tr.ts) ~stage:Obs.Trace.Functor_write
    ~arg:tr.epoch ();
  complete f tr

(* Second round: roll back the write-only phase on every partition that
   acknowledged it (§IV-C "arbitrary abort", in-epoch case). *)
let abort_write_phase f (tr : Tracker.t) keys_by_partition =
  let txn = Ts.to_int tr.ts in
  incr f.m_aborted_install;
  Node.emit f.node ~txn ~stage:Obs.Trace.Aborted ~arg:tr.epoch ();
  let aborted () =
    Txn_tbl.remove f.tracks txn;
    Epoch.Participant.txn_finished f.node.part ~epoch:tr.epoch;
    tr.reply (Txn.Aborted { ts = Some tr.ts; stage = `Install })
  in
  let remaining = ref (List.length tr.acked_ok) in
  if !remaining = 0 then aborted ()
  else
    List.iter
      (fun partition ->
        let keys = List.assoc partition keys_by_partition in
        Node.call_with_retry f.node ~partition
          (Message.Req (Message.Abort_txn { ts = txn; keys }))
          (fun _resp ->
            decr remaining;
            if !remaining = 0 then aborted ()))
      tr.acked_ok

let on_batch_done f ~txn_id ~partition ~max_retrieved_at ~aborted =
  match Txn_tbl.find_opt f.tracks txn_id with
  | None -> ()  (* already complete, or aborted in the write phase *)
  | Some tr ->
      if Tracker.batch_done tr ~partition ~aborted ~max_retrieved_at then begin
        Node.emit f.node ~txn:txn_id ~stage:Obs.Trace.Batch_ack
          ~arg:tr.Tracker.epoch ();
        complete f tr
      end

(* The write-only phase of both commit lanes: one install per partition
   group, each carrying the precondition keys that partition owns, with
   [on_ack partition ok] called on each partition's verdict.
   Coordination (transform + fan-out) costs FE CPU. *)
let send_installs f ~groups ~preconditions ~fast w ts on_ack =
  let txn = Ts.to_int ts in
  Sim.Worker_pool.submit f.node.pool ~cost:Config.cost_coord_us (fun () ->
      List.iter
        (fun (partition, entries) ->
          let install =
            { Message.txn_id = txn;
              epoch = w.Cores.Auth.epoch;
              ts = txn;
              lo = w.Cores.Auth.lo;
              hi = w.Cores.Auth.hi;
              writes = entries;
              preconditions =
                List.filter
                  (fun k -> f.node.partition_of k = partition)
                  preconditions;
              fast }
          in
          Node.call_with_retry f.node ~partition
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
   commits as soon as every partition has installed (and, when hardened,
   made durable on every live copy) its functors.  No tracker, no
   [Batch_done] round: the backends hold the functors as lazily-merged
   pending deltas. *)
let start_fast f ~groups reply w ts ~issued_at =
  let epoch = w.Cores.Auth.epoch in
  let remaining = ref (List.length groups) in
  send_installs f ~groups ~preconditions:[] ~fast:true w ts (fun _ _ ->
      (* With no preconditions a fast install cannot be rejected; any
         [false] verdict is a stale duplicate answer and the installed
         functor is authoritative. *)
      decr remaining;
      if !remaining = 0 then begin
        Epoch.Participant.txn_finished f.node.part ~epoch;
        incr f.m_installed;
        incr f.m_committed;
        incr f.m_fastpath_commits;
        let latency = now f - issued_at in
        Sim.Stats.Histogram.add f.h_lat_total latency;
        Sim.Stats.Histogram.add f.h_lat_fastpath latency;
        Node.emit f.node ~txn:(Ts.to_int ts) ~stage:Obs.Trace.Fastpath_commit
          ~arg:latency ();
        Node.lnote f.node (fun l ->
            Obs.Ledger.note_fast_commit l ~node:f.node.node_id ~epoch;
            if Obs.Ledger.awaiting_first_commit l then
              Obs.Ledger.note_commit l ~node:f.node.node_id ~t_us:(now f)
                ~partitions:(List.map fst groups));
        reply (Txn.Committed { ts })
      end)

let start_rw f ~writes ~precondition_keys reply w ts ~submitted_at =
  let issued_at = now f in
  let epoch = w.Cores.Auth.epoch in
  note_assigned f ts ~epoch ~submitted_at;
  Epoch.Participant.txn_started f.node.part ~epoch;
  let groups = groups_of_writes f writes in
  if
    f.node.config.Config.fastpath
    && Txn.all_commutative ~writes ~precondition_keys
  then start_fast f ~groups reply w ts ~issued_at
  else begin
    let tr =
      Tracker.create ~ts ~epoch ~issued_at ~reply
        ~partitions:(List.length groups)
    in
    Txn_tbl.replace f.tracks (Ts.to_int ts) tr;
    if groups = [] then
      (* No writes, so nothing to install or compute: the transaction
         commits at once with its timestamp. *)
      finish_write_phase f tr
    else
      let keys_by_partition =
        List.map (fun (p, entries) -> (p, List.map fst entries)) groups
      in
      send_installs f ~groups
        ~preconditions:(List.map Key.intern precondition_keys)
        ~fast:false w ts
        (fun partition ok ->
          match Tracker.install_ack tr ~partition ~ok ~now:(now f) with
          | Tracker.Installing -> ()
          | Tracker.Installed -> finish_write_phase f tr
          | Tracker.Install_rejected ->
              abort_write_phase f tr keys_by_partition)
  end

let submit f req reply =
  match req with
  | Txn.Read_write { writes; precondition_keys } ->
      incr f.m_submitted_rw;
      let submitted_at = now f in
      with_window f (fun w ts ->
          start_rw f ~writes ~precondition_keys reply w ts ~submitted_at)
  | Txn.Read_only { keys } ->
      incr f.m_submitted_ro;
      with_window f (fun w ts -> delay_ro f keys reply w ts)
  | Txn.Read_at { keys; version } -> run_read f keys version reply
