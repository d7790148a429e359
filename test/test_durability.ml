(* §III-A fault tolerance: write-ahead logging and deterministic replay
   recovery of a crashed partition. *)

module Value = Functor_cc.Value
module Txn = Alohadb.Txn
module Cluster = Alohadb.Cluster
module Wal = Alohadb.Wal
module Recovery = Alohadb.Recovery

(* ---- WAL unit tests ------------------------------------------------------ *)

let ik = Mvstore.Key.intern

let entry key version =
  Wal.Log_install
    { key = ik key; version;
      spec = Alohadb.Message.fspec_value (Value.int version);
      txn_id = version; coordinator = 0; epoch = 1; fast = false }

let test_wal_flush_timing () =
  let sim = Sim.Engine.create () in
  let wal = Wal.create sim ~flush_latency_us:500 () in
  Wal.append wal (entry "a" 1);
  Wal.append wal (entry "b" 2);
  Alcotest.(check int) "buffered, not durable" 0 (Wal.durable_count wal);
  Alcotest.(check int) "pending" 2 (Wal.pending_count wal);
  Sim.Engine.run ~until:500 sim;
  Alcotest.(check int) "durable after flush" 2 (Wal.durable_count wal);
  Alcotest.(check int) "nothing pending" 0 (Wal.pending_count wal)

let test_wal_order_preserved () =
  let sim = Sim.Engine.create () in
  let wal = Wal.create sim ~flush_latency_us:100 () in
  for i = 1 to 5 do
    Wal.append wal (entry "k" i)
  done;
  Sim.Engine.run ~until:1_000 sim;
  let versions =
    List.filter_map
      (function
        | Wal.Log_install { version; _ } -> Some version
        | Wal.Log_abort _ | Wal.Log_epoch_closed _ -> None)
      (Wal.durable wal)
  in
  Alcotest.(check (list int)) "replay order = append order" [ 1; 2; 3; 4; 5 ]
    versions

(* ---- qcheck: Wal vs a newest-first list reference ------------------------ *)

(* The reference is the log's original representation — two newest-first
   lists, flushed and buffered — with every observer rebuilt from them the
   obvious way.  A random interleaving of appends, flushes (the simulator
   run to quiescence), crashes, durability waits and range reads drives
   both; the indexed Wal must agree on every observer after
   every op, and after_durable callbacks must fire in registration
   order. *)

type wal_model = {
  mutable w_flushed : Wal.entry list;  (* newest first *)
  mutable w_buffered : Wal.entry list;  (* newest first *)
  mutable w_scheduled : bool;  (* a flush is in flight *)
  mutable w_waiting : int list;  (* registered, not yet fired; newest first *)
  mutable w_fired : int list;  (* expected firing order; newest first *)
}

type wal_op =
  | W_append of int  (* 0 install, 1 abort, 2 epoch close *)
  | W_flush
  | W_lose
  | W_after_durable
  | W_range of int * int  (* from, upto *)

let gen_wal_ops =
  let open QCheck2.Gen in
  let op =
    frequency
      [ (8, map (fun k -> W_append k) (int_range 0 2));
        (3, pure W_flush);
        (1, pure W_lose);
        (2, pure W_after_durable);
        (2, map2 (fun f u -> W_range (f, u)) (int_range (-2) 60)
              (int_range (-2) 60)) ]
  in
  list_size (int_range 1 120) op

(* Entries are told apart by (kind, tag); tags are fresh per append. *)
let tag_of = function
  | Wal.Log_install { version; _ } -> (0, version)
  | Wal.Log_abort { version; _ } -> (1, version)
  | Wal.Log_epoch_closed e -> (2, e)

let model_entry_bytes = function
  | Wal.Log_install _ -> 64
  | Wal.Log_abort _ -> 24
  | Wal.Log_epoch_closed _ -> 16

let model_range m ~from ~upto =
  let rec take i acc = function
    | [] -> List.rev acc
    | e :: rest ->
        if i > upto then List.rev acc
        else take (i + 1) (if i > from then (i, e) :: acc else acc) rest
  in
  take 1 [] (List.rev m.w_flushed)

let prop_wal_matches_reference =
  QCheck2.Test.make ~name:"wal = newest-first list reference" ~count:300
    gen_wal_ops (fun ops ->
      let sim = Sim.Engine.create () in
      let wal = Wal.create sim ~flush_latency_us:100 () in
      let m =
        { w_flushed = []; w_buffered = []; w_scheduled = false;
          w_waiting = []; w_fired = [] }
      in
      let fired = ref [] in
      let next = ref 0 in
      let tags = List.map tag_of in
      let tagged_range = List.map (fun (i, e) -> (i, tag_of e)) in
      let violations = ref [] in
      let check what ok =
        if not ok then violations := what :: !violations
      in
      List.iter
        (fun op ->
          (match op with
          | W_append kind ->
              incr next;
              let e =
                match kind with
                | 0 -> entry "k" !next
                | 1 -> Wal.Log_abort { key = ik "k"; version = !next }
                | _ -> Wal.Log_epoch_closed !next
              in
              Wal.append wal e;
              m.w_buffered <- e :: m.w_buffered;
              m.w_scheduled <- true
          | W_flush ->
              Sim.Engine.run sim;
              if m.w_scheduled then begin
                m.w_flushed <- m.w_buffered @ m.w_flushed;
                m.w_buffered <- [];
                m.w_fired <- m.w_waiting @ m.w_fired;
                m.w_waiting <- [];
                m.w_scheduled <- false
              end
          | W_lose ->
              let lost = Wal.lose_unflushed wal in
              check "lose_unflushed count" (lost = List.length m.w_buffered);
              m.w_buffered <- [];
              m.w_waiting <- [];
              m.w_scheduled <- false
          | W_after_durable ->
              incr next;
              let id = !next in
              Wal.after_durable wal (fun () -> fired := id :: !fired);
              if m.w_buffered = [] && not m.w_scheduled then
                m.w_fired <- id :: m.w_fired
              else begin
                m.w_waiting <- id :: m.w_waiting;
                m.w_scheduled <- true
              end
          | W_range (from, upto) ->
              check
                (Printf.sprintf "durable_range %d %d" from upto)
                (tagged_range (Wal.durable_range wal ~from ~upto)
                = tagged_range (model_range m ~from ~upto)));
          check "durable" (tags (Wal.durable wal) = tags (List.rev m.w_flushed));
          check "all"
            (tags (Wal.all wal)
            = tags (List.rev_append m.w_flushed (List.rev m.w_buffered)));
          check "durable_count"
            (Wal.durable_count wal = List.length m.w_flushed);
          check "pending_count"
            (Wal.pending_count wal = List.length m.w_buffered);
          check "pending_bytes"
            (Wal.pending_bytes wal
            = List.fold_left
                (fun acc e -> acc + model_entry_bytes e) 0 m.w_buffered);
          let upto = List.length m.w_flushed in
          check "full durable_range"
            (tagged_range (Wal.durable_range wal ~from:0 ~upto)
            = tagged_range (model_range m ~from:0 ~upto));
          check "waiters fire in registration order" (!fired = m.w_fired))
        ops;
      match !violations with
      | [] -> true
      | v :: _ -> QCheck2.Test.fail_report v)

(* ---- end-to-end crash/recovery ------------------------------------------- *)

(* A fault oracle makes a cluster durable (and hardened); one with no
   edicts draws nothing and drops nothing. *)
let durable_options n =
  { Cluster.default_options with
    n_servers = n;
    faults = Some (Net.Faults.create ~seed:1 ()) }

let registry_with_xfer () =
  let r = Functor_cc.Registry.with_builtins () in
  Functor_cc.Registry.register r "xfer_guard" (fun ctx ->
      let src = Value.to_str (Functor_cc.Registry.arg ctx 0) in
      let amount = Value.to_int (Functor_cc.Registry.arg ctx 1) in
      let delta = Value.to_int (Functor_cc.Registry.arg ctx 2) in
      let bal =
        match Functor_cc.Registry.read ctx src with
        | Some v -> Value.to_int v
        | None -> 0
      in
      if bal < amount then Functor_cc.Registry.Abort
      else
        let own =
          match Functor_cc.Registry.read ctx ctx.Functor_cc.Registry.key with
          | Some v -> Value.to_int v
          | None -> 0
        in
        Functor_cc.Registry.Commit (Value.int (own + delta)));
  r

let keys = List.init 8 (fun i -> Printf.sprintf "k:%d:a%d" (i mod 2) i)

(* [n] transactions, one every 600 µs from [from_us]: ADDs, transfers
   and guarded transfers with cross-partition reads.  Runs the cluster
   until [until_us] and checks that every transaction resolved. *)
let run_mixed_load ?(seed = 77) ?(from_us = 1_000) ?(n = 80)
    ?(until_us = 400_000) c sim =
  let rng = Sim.Rng.create seed in
  let resolved = ref 0 and submitted = ref 0 in
  for i = 0 to n - 1 do
    incr submitted;
    let src = List.nth keys (Sim.Rng.int rng 8) in
    let dst = List.nth keys (Sim.Rng.int rng 8) in
    Sim.Engine.schedule sim ~at:(from_us + (i * 600)) (fun () ->
        let req =
          if String.equal src dst then
            Txn.read_write [ (src, Txn.Add 1) ]
          else if i mod 3 = 0 then
            (* guarded transfer with cross-partition reads *)
            Txn.read_write
              [ (src,
                 Txn.Call
                   { handler = "xfer_guard"; read_set = [ src ];
                     args = [ Value.str src; Value.int 5; Value.int (-5) ] });
                (dst,
                 Txn.Call
                   { handler = "xfer_guard"; read_set = [ src; dst ];
                     args = [ Value.str src; Value.int 5; Value.int 5 ] }) ]
          else
            Txn.read_write [ (src, Txn.Subtr 2); (dst, Txn.Add 2) ]
        in
        Cluster.submit c ~fe:(i mod 2) req (fun _ -> incr resolved))
  done;
  Sim.Engine.run ~until:until_us sim;
  Alcotest.(check int) "load resolved" !submitted !resolved

(* Read every key's latest value directly from an engine. *)
let engine_state engine =
  List.filter_map
    (fun key ->
      let got = ref None in
      Functor_cc.Compute_engine.get engine ~key:(ik key) ~version:max_int
        (fun v -> got := Some v);
      match !got with
      | Some (Some v) -> Some (key, Value.to_int v)
      | Some None -> None
      | None -> Alcotest.fail "read did not resolve")
    keys

(* A fresh engine for the crashed partition, with remote reads wired to
   the surviving server's live engine. *)
let fresh_engine ~survivor ~partition_of ~my_partition =
  let self = ref None in
  let callbacks =
    { Functor_cc.Compute_engine.is_local =
        (fun key -> partition_of key = my_partition);
      remote_get =
        (fun ~key ~version k ->
          Functor_cc.Compute_engine.get survivor ~key ~version k);
      send_push =
        (fun ~dst_key ~version ~src_key v ->
          match !self with
          | Some e when partition_of dst_key = my_partition ->
              Functor_cc.Compute_engine.deliver_push e ~key:dst_key ~version
                ~src_key v
          | Some _ | None -> ());
      send_dep_write =
        (fun ~key ~version final ->
          match !self with
          | Some e when partition_of key = my_partition ->
              Functor_cc.Compute_engine.deliver_dep_write e ~key ~version
                ~final
          | Some _ | None -> ());
      notify_final = (fun ~key:_ ~version:_ ~pending:_ ~final:_ -> ());
      exec = (fun ~cost:_ k -> k ());
      now = (fun () -> 0) }
  in
  let e =
    Functor_cc.Compute_engine.create
      ~registry:(registry_with_xfer ())
      ~callbacks ~compute_cost_us:0 ~metrics:(Sim.Metrics.create ()) ()
  in
  self := Some e;
  e

(* Replay the victim's durable log into a fresh engine, then compute every
   key's latest version (ascending per key, as the post-recovery planner
   would); remote reads go to the surviving partition's live engine. *)
let test_recovery_replay () =
  let c = Cluster.create ~registry:(registry_with_xfer ()) (durable_options 2) in
  List.iter (fun k -> Cluster.load c ~key:k (Value.int 100)) keys;
  Cluster.start c;
  let sim = Cluster.sim c in
  run_mixed_load c sim;
  (* Let the WAL flush everything before the crash. *)
  Sim.Engine.run ~until:(Sim.Engine.now sim + 10_000) sim;
  let victim = Cluster.server c 1 in
  let survivor = Alohadb.Server.engine (Cluster.server c 0) in
  let before = engine_state (Alohadb.Server.engine victim) in
  let wal =
    match Alohadb.Server.wal victim with
    | Some w -> w
    | None -> Alcotest.fail "durability not enabled"
  in
  Alcotest.(check int) "wal fully flushed" 0 (Wal.pending_count wal);
  (* Crash: partition 1's memory is gone; rebuild from its WAL. *)
  let recovered =
    fresh_engine ~survivor
      ~partition_of:(fun k -> Cluster.partition_of c (Mvstore.Key.name k))
      ~my_partition:1
  in
  (* Initial data is not logged (it predates the log); a real deployment
     reloads it from the loader. *)
  List.iter
    (fun k ->
      if Cluster.partition_of c k = 1 then
        Functor_cc.Compute_engine.load_initial recovered ~key:(ik k)
          (Value.int 100))
    keys;
  Recovery.replay ~engine:recovered ~entries:(Wal.durable wal);
  Alcotest.(check bool) "something restored" true
    (Functor_cc.Compute_engine.pending_count recovered > 0);
  let table = Functor_cc.Compute_engine.table recovered in
  Mvstore.Table.fold_chains table ~init:() ~f:(fun key chain () ->
      let latest = Mvstore.Chain.length chain - 1 in
      if latest >= 0 then
        Functor_cc.Compute_engine.compute_key recovered ~key
          ~version:(Mvstore.Chain.version_at chain latest));
  Alcotest.(check int) "no pending after recompute" 0
    (Functor_cc.Compute_engine.pending_count recovered);
  (* The recovered partition's state equals the pre-crash state. *)
  List.iter
    (fun (key, v_before) ->
      if Cluster.partition_of c key = 1 then begin
        let got = ref None in
        Functor_cc.Compute_engine.get recovered ~key:(ik key) ~version:max_int
          (fun v -> got := Some v);
        match !got with
        | Some (Some v) ->
            Alcotest.(check int)
              (Printf.sprintf "recovered %s" key)
              v_before (Value.to_int v)
        | Some None -> Alcotest.failf "%s lost" key
        | None -> Alcotest.fail "read did not resolve"
      end)
    before

(* The same scenario through the server itself, at k = 1: the home
   partition's log is a replication group of one.  crash_be and
   restart_be must bring back every key's pre-crash value, and new
   transactions must still commit on top of it.  Preloaded rows are not
   logged, so the opening balances are written by a transaction. *)
let test_crash_restart () =
  let c = Cluster.create ~registry:(registry_with_xfer ()) (durable_options 2) in
  Cluster.start c;
  let sim = Cluster.sim c in
  let victim = Cluster.server c 1 in
  let on_victim key = Cluster.partition_of c key = 1 in
  Cluster.submit c ~fe:0
    (Txn.read_write (List.map (fun k -> (k, Txn.Put (Value.int 100))) keys))
    (function
      | Txn.Committed _ -> ()
      | _ -> Alcotest.fail "opening balances did not commit");
  run_mixed_load c sim ~from_us:20_000;
  let state () =
    List.filter (fun (k, _) -> on_victim k)
      (engine_state (Alohadb.Server.engine victim))
  in
  let before = state () in
  Alcotest.(check int) "every victim key has a value" 4 (List.length before);
  Alohadb.Server.crash_be victim;
  Sim.Engine.run ~until:(Sim.Engine.now sim + 5_000) sim;
  Alohadb.Server.restart_be victim;
  Sim.Engine.run ~until:(Sim.Engine.now sim + 100_000) sim;
  Alcotest.(check (list (pair string int))) "pre-crash state" before (state ());
  let committed = ref 0 in
  List.iteri
    (fun i (key, _) ->
      Cluster.submit c ~fe:(i mod 2)
        (Txn.read_write [ (key, Txn.Add 1) ])
        (function Txn.Committed _ -> incr committed | _ -> ()))
    before;
  Sim.Engine.run ~until:(Sim.Engine.now sim + 200_000) sim;
  Alcotest.(check int) "new transactions commit" 4 !committed;
  Alcotest.(check (list (pair string int)))
    "new writes on top" (List.map (fun (k, v) -> (k, v + 1)) before) (state ())

let test_unflushed_tail_lost () =
  let sim = Sim.Engine.create () in
  let wal = Wal.create sim ~flush_latency_us:1_000 () in
  Wal.append wal (entry "a" 1);
  Sim.Engine.run ~until:1_000 sim;
  Wal.append wal (entry "a" 2);
  (* Crash 100 µs later: the second entry never reached the device. *)
  Sim.Engine.run ~until:1_100 sim;
  Alcotest.(check int) "only the flushed prefix survives" 1
    (Wal.durable_count wal)

(* A crash replaces the backend's incarnation while its worker pool still
   holds compute jobs of the closed epoch.  Those jobs belong to the dead
   incarnation: until the restart the crashed server must send nothing
   on their behalf (no Push, Dep_write or Batch_done), and after it the
   recovered incarnation must still complete every transaction. *)
let test_dead_incarnation_silent () =
  let c = Cluster.create (durable_options 2) in
  let victim = Cluster.server c 1 in
  let em = Net.Address.of_int 2 in
  let sent_while_down = ref 0 in
  Cluster.set_trace c (fun ~src ~dst ->
      if
        Net.Address.equal src (Alohadb.Server.addr victim)
        && (not (Net.Address.equal dst em))
        && Alohadb.Server.be_down victim
      then incr sent_while_down);
  Cluster.start c;
  let n = 100 in
  for i = 0 to n - 1 do
    let writes =
      List.init 10 (fun j -> (Printf.sprintf "k:1:g%d_%d" i j, Txn.Add 1))
    in
    List.iter
      (fun (k, _) ->
        Alcotest.(check int) "on the victim" 1 (Cluster.partition_of c k))
      writes;
    Cluster.submit c ~fe:0 (Txn.read_write writes) (fun _ -> ())
  done;
  let metrics = Cluster.metrics c in
  let sim = Cluster.sim c in
  while Sim.Metrics.get metrics "plan.plans" = 0 && Sim.Engine.now sim < 200_000
  do
    Cluster.run_for c 20
  done;
  Alcotest.(check bool) "compute jobs queued at the crash" true
    (Sim.Worker_pool.queue_length (Alohadb.Server.pool victim) > 0);
  Alohadb.Server.crash_be victim;
  Cluster.run_for c 5_000;
  Alcotest.(check int) "nothing sent while down" 0 !sent_while_down;
  Alohadb.Server.restart_be victim;
  Cluster.run_for c 300_000;
  Alcotest.(check int) "every transaction commits" n
    (Sim.Metrics.get metrics "aloha.committed")

let suite =
  [ Alcotest.test_case "wal flush timing" `Quick test_wal_flush_timing;
    Alcotest.test_case "wal order" `Quick test_wal_order_preserved;
    QCheck_alcotest.to_alcotest prop_wal_matches_reference;
    Alcotest.test_case "recovery by replay" `Quick test_recovery_replay;
    Alcotest.test_case "crash, restart (k=1)" `Quick test_crash_restart;
    Alcotest.test_case "unflushed tail lost" `Quick test_unflushed_tail_lost;
    Alcotest.test_case "dead incarnation stays silent" `Quick
      test_dead_incarnation_silent ]
