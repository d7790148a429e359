module Repl = Cores.Repl

type fabric = { plane : Message.rpc; route : Net.Route.t }

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
  f_log : Wal.entry Cores.Follower_log.t;  (* term and logged prefix *)
  mutable f_wal : Wal.t;
  mutable f_ack_pending : bool;
}

type t = {
  node : Node.t;
  fabric : fabric;
  prims : (int, prim) Hashtbl.t;
      (* partition -> primary-side state: every log this server leads *)
  flws : (int, flw) Hashtbl.t;  (* partition -> follower-side state *)
  gate : Cores.Close_gate.t;
}

let now t = Node.now t.node
let new_wal t = Wal.create t.node.sim ~flush_latency_us:Config.wal_flush_us ()

(* Without a WAL nothing is in [prims], and the home partition is led. *)
let leads t ~partition =
  if t.node.durable then Hashtbl.mem t.prims partition
  else partition = t.node.my_partition

let current_prim t partition = Hashtbl.find_opt t.prims partition
let wal t = Option.map (fun p -> p.p_wal) (current_prim t t.node.my_partition)
let leads_any t = Hashtbl.length t.prims > 0

let iter_led t f =
  Hashtbl.iter (fun partition p -> f ~partition p.p_wal) t.prims

(* Append to the partition's log and advance the group's replicated-log
   length, which stays equal to the WAL entry count: the log never
   renumbers, and a crash cuts both back to the durable prefix. *)
let log_entry t ~partition entry =
  match current_prim t partition with
  | Some prim ->
      Wal.append prim.p_wal entry;
      ignore (Repl.append prim.group)
  | None -> ()

(* Answer once the partition's log entries a gated answer covers are
   durable: flushed here and acked by every live follower of the group —
   so a committed transaction survives the loss of any single replica.
   The replication sequence is captured NOW (right after the request's
   appends), not when the flush fires, so unrelated later traffic cannot
   inflate the gate. *)
let after_logged t ~partition ~gated finish =
  match current_prim t partition with
  | Some prim when gated && t.node.hardened ->
      let seq = Repl.len prim.group in
      Wal.after_durable prim.p_wal (fun () ->
          Repl.when_seq_acked prim.group ~seq finish)
  | Some _ | None -> finish ()

(* ---- WAL shipping (primary side) ---------------------------------------- *)

let ship_entry_to t prim ~dst ~seq entry =
  Node.emit t.node ~txn:(-1) ~stage:Obs.Trace.Wal_ship ~arg:seq ();
  Node.lnote t.node (fun _ ->
      prim.ship_log <-
        ( Net.Address.to_int dst, seq, now t,
          Epoch.Participant.current_epoch t.node.part )
        :: prim.ship_log);
  Net.Rpc.send t.fabric.plane ~src:t.node.address ~dst
    (Message.One
       (Message.Wal_ship
          { partition = prim.p_partition; term = Repl.term prim.group; seq;
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

(* Periodic retransmission to lagging followers, running while any live
   follower is behind.  Stale timers are disarmed by the identity check:
   a demotion or re-adoption replaces the prim record. *)
let rec arm_retry t prim =
  if t.node.hardened && not prim.retry_armed then begin
    prim.retry_armed <- true;
    Sim.Engine.after t.node.sim Config.retry_us (fun () ->
        prim.retry_armed <- false;
        match current_prim t prim.p_partition with
        | Some pr when pr == prim && not t.node.be_down ->
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

(* Become the primary of [partition]'s group under the route's term and
   register the prim; each flushed suffix is shipped to the followers. *)
let lead t ~partition ~wal ~len =
  let route = t.fabric.route in
  let members = Net.Route.members route ~partition in
  let group =
    Repl.create ~term:(Net.Route.term route ~partition)
      ~primary:(Net.Address.to_int t.node.address)
      ~members:(List.map Net.Address.to_int members)
      ~len
  in
  let prim =
    { p_partition = partition; p_wal = wal; group;
      followers =
        List.filter
          (fun a -> not (Net.Address.equal a t.node.address))
          members;
      shipped = 0; retry_armed = false; ship_log = [] }
  in
  Hashtbl.replace t.prims partition prim;
  if prim.followers <> [] then
    Wal.set_on_flush wal (fun () ->
        match current_prim t partition with
        | Some pr when pr == prim && not t.node.be_down ->
            ship_fresh t pr;
            if Repl.replica_lag pr.group > 0 then arm_retry t pr
        | Some _ | None -> ());
  prim

(* ---- follower side ------------------------------------------------------ *)

(* Follower acks are cumulative and sent only once the received prefix is
   durable in the follower's own WAL — so an acked entry survives the
   follower's crash too, which is what makes the primary's gating floor
   mean "on stable storage at every live replica". *)
let schedule_ack t f ~dst =
  if not f.f_ack_pending then begin
    f.f_ack_pending <- true;
    let wal = f.f_wal in
    Wal.after_durable wal (fun () ->
        (* a term wipe replaced the log: this ack belongs to the dead
           one and must not be attributed to the new primary's *)
        if f.f_wal == wal then begin
          f.f_ack_pending <- false;
          if not t.node.be_down then
            Net.Rpc.send t.fabric.plane ~src:t.node.address ~dst
              (Message.One
                 (Message.Ship_ack
                    { partition = f.f_partition;
                      term = Cores.Follower_log.term f.f_log;
                      seq = Wal.durable_count wal }))
        end)
  end

(* Re-acking a duplicate is deliberate: after the primary loses its ack
   bookkeeping (crash) it re-ships, and the cumulative ack re-establishes
   the floor. *)
let on_wal_ship t ~src ~partition ~term ~seq ~entry =
  if not t.node.be_down then
    match Hashtbl.find_opt t.flws partition with
    | None -> ()  (* not (or no longer) a follower of this partition *)
    | Some f -> (
        if Cores.Follower_log.new_term f.f_log ~term then begin
          f.f_wal <- new_wal t;
          f.f_ack_pending <- false
        end;
        match Cores.Follower_log.ship f.f_log ~term ~seq entry with
        | Stale -> ()
        | Next ->
            Wal.append f.f_wal entry;
            (match Cores.Follower_log.take f.f_log with
            | [] -> ()
            | held -> List.iter (Wal.append f.f_wal) held);
            schedule_ack t f ~dst:src
        | Held -> schedule_ack t f ~dst:src)

let on_ship_ack t ~src ~partition ~term ~seq =
  if not t.node.be_down then
    match current_prim t partition with
    | Some prim when Repl.term prim.group = term ->
        Repl.ack prim.group ~member:(Net.Address.to_int src) ~seq;
        Node.lnote t.node (fun l ->
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
                Obs.Ledger.note_ship_lag l ~node:t.node.node_id ~epoch
                  ~partition ~lag_us:(now t - sent))
              acked)
    | Some _ | None -> ()  (* stale term: ack for a deposed primary's log *)

(* Follow [partition] from an empty log under [term]. *)
let new_follower t ~partition ~term =
  Hashtbl.replace t.flws partition
    { f_partition = partition; f_log = Cores.Follower_log.create ~term;
      f_wal = new_wal t; f_ack_pending = false }

(* A durable server leads its home partition's group from the start, on
   an empty log, and follows every other partition whose group includes
   it. *)
let create node fabric =
  let t =
    { node; fabric; prims = Hashtbl.create 4; flws = Hashtbl.create 4;
      gate = Cores.Close_gate.create () }
  in
  let home = node.Node.my_partition in
  if node.durable then
    ignore (lead t ~partition:home ~wal:(new_wal t) ~len:0);
  List.iter
    (fun partition ->
      if partition <> home then
        new_follower t ~partition
          ~term:(Net.Route.term fabric.route ~partition))
    (Net.Route.groups_of fabric.route node.address);
  (* Ship-plane handlers run off the worker pool: replication bookkeeping
     is modelled as free, so the data-plane timeline is not perturbed. *)
  Net.Rpc.serve_oneway fabric.plane node.address (fun ~src wire ->
      match wire with
      | Message.One (Message.Wal_ship { partition; term; seq; entry }) ->
          on_wal_ship t ~src ~partition ~term ~seq ~entry
      | Message.One (Message.Ship_ack { partition; term; seq }) ->
          on_ship_ack t ~src ~partition ~term ~seq
      | Message.One _ | Message.Req _ -> ());
  t

(* ---- the close gate ------------------------------------------------------ *)

let deliver t close closes =
  List.iter
    (fun (c : Cores.Close_gate.close) ->
      Node.lnote t.node (fun l ->
          List.iter
            (fun partition ->
              Obs.Ledger.note_gate_wait l ~node:t.node.node_id ~epoch:c.epoch
                ~partition ~wait_us:(now t - c.entered))
            c.groups);
      close ~epoch:c.epoch)
    closes

(* The close marker, logged at grant time, is the epoch's replication
   barrier, so under the gate it exists before the gate waits on it.  An
   epoch may then close (advancing the value watermark past its blind
   writes) only once its marker — and with it every entry of the epoch —
   is durable on all live replicas of every partition this server
   leads. *)
let gate t ~epoch close =
  let prims =
    if t.node.be_down then []
    else Hashtbl.fold (fun _ p acc -> p :: acc) t.prims []
  in
  List.iter
    (fun p ->
      Wal.append p.p_wal (Wal.Log_epoch_closed epoch);
      ignore (Repl.append p.group);
      Repl.close_epoch p.group ~epoch)
    prims;
  let gated =
    if t.node.hardened then List.filter (fun p -> p.followers <> []) prims
    else []
  in
  deliver t close
    (Cores.Close_gate.enter t.gate ~epoch ~now:(now t)
       ~groups:(List.map (fun p -> p.p_partition) gated));
  List.iter
    (fun p ->
      Repl.when_epoch_durable p.group ~epoch (fun () ->
          deliver t close
            (Cores.Close_gate.durable t.gate ~group:p.p_partition ~epoch)))
    gated

(* ---- membership verdicts ------------------------------------------------- *)

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
      if not t.node.be_down then reship_member t prim ~member;
      arm_retry t prim
  | None -> ()

(* ---- crash, restart, promotion ------------------------------------------- *)

(* The unflushed tails are gone, and so are the Repl waiters of the
   closes the gate holds: the EM's grant made each of them a
   cluster-global fact, so they are delivered now (and [close] skips the
   backend-side work). *)
let crash t close =
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
      Cores.Follower_log.crash f.f_log ~durable:(Wal.durable_count f.f_wal);
      f.f_ack_pending <- false)
    t.flws;
  deliver t close (Cores.Close_gate.crash t.gate)

(* Re-join every partition this server lost while down — the routing
   table says someone else leads it now — as a follower with an empty
   log; the new primary's shipments (a higher term) rebuild it from
   seq 1. *)
let demote_lost t =
  let led = Hashtbl.fold (fun p _ acc -> p :: acc) t.prims [] in
  List.iter
    (fun partition ->
      if
        not
          (Net.Address.equal
             (Net.Route.resolve t.fabric.route ~partition)
             t.node.address)
      then begin
        Hashtbl.remove t.prims partition;
        Sim.Metrics.incr t.node.metrics "aloha.demotions";
        new_follower t ~partition ~term:0
      end)
    led

(* Follower acks are volatile on both sides: re-ship everything and let
   the cumulative acks re-establish the floor. *)
let reship_all t =
  Hashtbl.iter
    (fun _ prim ->
      if prim.followers <> [] then begin
        prim.shipped <- 0;
        ship_fresh t prim;
        arm_retry t prim
      end)
    t.prims

let adopt t ~partition ~down ~closed_epoch ~replay ~release =
  if not (Hashtbl.mem t.prims partition) then begin
    let f =
      match Hashtbl.find_opt t.flws partition with
      | Some f -> f
      | None -> invalid_arg "Server.adopt_partition: not a follower"
    in
    Hashtbl.remove t.flws partition;
    Sim.Metrics.incr t.node.metrics "aloha.promotions";
    Node.emit t.node ~txn:(-1) ~stage:Obs.Trace.Promote ~arg:partition ();
    Node.lnote t.node (fun l ->
        Obs.Ledger.note_event l ~kind:Obs.Ledger.Promote ~node:t.node.node_id
          ~t_us:(now t) ~partition ());
    (* The follower did not crash, so its buffered WAL tail is still
       valid — replay all of it, not just the durable prefix. *)
    let entries = Wal.all f.f_wal in
    replay entries;
    let prim = lead t ~partition ~wal:f.f_wal ~len:(List.length entries) in
    List.iter
      (fun a -> Repl.member_down prim.group ~id:(Net.Address.to_int a))
      down;
    (* Epochs closed so far are durable by adoption (this replica has
       them); future closes barrier at the log positions they reach. *)
    Repl.close_epoch prim.group ~epoch:closed_epoch;
    release ();
    ship_fresh t prim;
    arm_retry t prim
  end

(* ---- probes -------------------------------------------------------------- *)

let wal_pending_bytes t =
  Hashtbl.fold (fun _ p acc -> acc + Wal.pending_bytes p.p_wal) t.prims 0
  + Hashtbl.fold (fun _ f acc -> acc + Wal.pending_bytes f.f_wal) t.flws 0

let replication_lag t =
  Hashtbl.fold (fun _ prim acc -> acc + Repl.replica_lag prim.group) t.prims 0

let note_groups t l ~epoch =
  Hashtbl.iter
    (fun partition prim ->
      let live = List.length (Repl.live_followers prim.group) in
      Obs.Ledger.note_group l ~node:t.node.node_id ~epoch ~partition
        ~ack_floor:(Repl.len prim.group - Repl.replica_lag prim.group)
        ~live_followers:live ~degraded:(live = 0))
    t.prims
