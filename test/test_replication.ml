(* Replicated backends with failover (DESIGN.md §13).

   Four layers of proof, mirroring the ISSUE-8 battery:
   - seeded chaos schedules that crash EVERY backend once per run at
     k = 2 and k = 3, checked by the driver's survival invariants (no
     committed transaction lost, faulted state = replicated crash-free
     reference, completion, monotone probes, trace determinism);
   - targeted failover scenarios: a permanent primary loss served by a
     promoted replica to the end of the run, and a rejoin-then-promote-
     back round trip proving a re-joined primary converges;
   - a qcheck model test of the pure ack-gating state machine
     ({!Cores.Repl}) against a sorted-assoc reference: no epoch is
     ever reported durable unless every surviving replica can replay it;
   - the behaviour-neutrality differential: --replicas 2 with zero
     faults is indistinguishable from --replicas 1 (identical committed
     state AND identical simulated tps) across all three compute
     modes. *)

module Value = Functor_cc.Value
module R = Cores.Repl

let n_servers = 3

let aloha_target =
  match Chaos.Driver.target_of_name "aloha" with
  | Some t -> t
  | None -> assert false

let check_report (r : Chaos.Driver.report) =
  if not (Chaos.Driver.passed r) then
    Alcotest.failf "aloha k=%d seed %d: %s" r.Chaos.Driver.replicas
      r.Chaos.Driver.seed
      (String.concat "; " r.Chaos.Driver.violations)

(* ---- chaos battery: every backend crashed once per run ---------------- *)

let test_battery replicas seeds () =
  List.iter
    (fun seed ->
      let r =
        Chaos.Driver.run_seed aloha_target ~replicas ~seed ~n_servers
      in
      check_report r;
      (* the replicated generator really did crash every backend *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d committed everything" seed)
        true
        (r.Chaos.Driver.committed = r.Chaos.Driver.submitted))
    seeds

(* ---- targeted failover scenarios -------------------------------------- *)

(* A primary lost for good (restart far beyond the 1s run horizon): with
   k = 2 the promoted follower must carry its partition to the end of the
   run — every invariant including completion holds while one backend
   stays dark.  (With k = 1 this same schedule cannot complete, which is
   the availability figure's edge.) *)
let test_permanent_primary_loss () =
  let schedule =
    { Chaos.Schedule.seed = 77;
      n_servers;
      events =
        [ Chaos.Schedule.Crash
            { node = 1; at_us = 20_000; restart_at_us = 2_000_000 } ] }
  in
  check_report
    (Chaos.Driver.run_schedule aloha_target ~replicas:2 ~schedule)

(* Rejoin convergence, the hard way: crash primary 0 (partition 0 fails
   over to node 1), let 0 restart and catch up as a follower, then crash
   node 1 — partition 0 must fail over BACK to node 0, whose follower log
   is complete only if the rejoin resync worked.  The end-state oracle
   over all keys proves the round trip lost nothing. *)
let test_rejoin_then_promote_back () =
  let schedule =
    { Chaos.Schedule.seed = 78;
      n_servers;
      events =
        [ Chaos.Schedule.Crash
            { node = 0; at_us = 6_000; restart_at_us = 14_000 };
          Chaos.Schedule.Crash
            { node = 1; at_us = 45_000; restart_at_us = 53_000 } ] }
  in
  check_report
    (Chaos.Driver.run_schedule aloha_target ~replicas:2 ~schedule)

(* Message loss on top of a crash: ship, ack, re-route and Batch_done
   retransmission paths all under a lossy network. *)
let test_failover_under_loss () =
  let schedule =
    { Chaos.Schedule.seed = 79;
      n_servers;
      events =
        [ Chaos.Schedule.Crash
            { node = 2; at_us = 8_000; restart_at_us = 16_000 };
          Chaos.Schedule.Edict
            (Net.Faults.edict Net.Faults.Drop ~p:0.15 ~from_us:2_000
               ~until_us:30_000) ] }
  in
  check_report
    (Chaos.Driver.run_schedule aloha_target ~replicas:2 ~schedule)

(* ---- single-copy assumption regressions ------------------------------- *)

(* Replication implies durability: a fault-free replicas > 1 cluster must
   come up with a WAL on every server (shipping volatile entries would let
   a follower "ack" state the primary itself can lose). *)
let test_replication_forces_durability () =
  let c =
    Alohadb.Cluster.create
      { Alohadb.Cluster.default_options with
        n_servers;
        config = { Alohadb.Config.default with Alohadb.Config.replicas = 2 } }
  in
  Alcotest.(check bool) "wal present" true
    (Alohadb.Server.wal (Alohadb.Cluster.server c 0) <> None);
  Alcotest.(check int) "effective k" 2 (Alohadb.Cluster.replicas c);
  (* groups are the k consecutive nodes *)
  Alcotest.(check (list int)) "group of partition 2" [ 2; 0 ]
    (Alohadb.Cluster.group_members c ~partition:2)

(* Durability is derived, not configured: every server writes a WAL
   exactly when the cluster has a fault oracle (an empty one here) or
   k > 1, and at k = 1 each partition is a group of one led by its home
   server. *)
let test_derived_durability () =
  List.iter
    (fun (faulty, k) ->
      let name = Printf.sprintf "faults=%b k=%d" faulty k in
      let c =
        Alohadb.Cluster.create
          { Alohadb.Cluster.default_options with
            n_servers;
            faults =
              (if faulty then Some (Net.Faults.create ~seed:1 ()) else None);
            config = { Alohadb.Config.default with Alohadb.Config.replicas = k }
          }
      in
      for p = 0 to n_servers - 1 do
        let srv = Alohadb.Cluster.server c p in
        Alcotest.(check bool)
          (name ^ ": wal present") (faulty || k > 1)
          (Alohadb.Server.wal srv <> None);
        if k = 1 then begin
          Alcotest.(check (list int))
            (name ^ ": group of one") [ p ]
            (Alohadb.Cluster.group_members c ~partition:p);
          Alcotest.(check bool)
            (name ^ ": primary is home") true
            (Alohadb.Cluster.primary_server c ~partition:p == srv)
        end
      done)
    [ (false, 1); (false, 2); (true, 1); (true, 2) ]

(* ---- qcheck: ack gating vs a sorted-assoc reference ------------------- *)

(* Model of one replication group: the primary plus two followers, driven
   by a random interleaving of append / ack / crash(member) / rejoin /
   epoch-close / primary-crash events.  The reference keeps follower acks
   and epoch barriers as sorted assoc lists and recomputes the durable
   epoch from scratch after every op; {!Cores.Repl} must agree, and —
   the actual safety property — at the moment an epoch-durable gate
   fires, every live follower's acked prefix must cover the epoch's
   barrier (so ANY surviving replica can replay the epoch), unless no
   follower is live at all (degraded single-copy mode, where only the
   primary's own log holds it). *)

type model = {
  mutable m_len : int;
  mutable m_acked : (int * int) list;  (* member -> ack, sorted by member *)
  mutable m_live : (int * bool) list;
  mutable m_barriers : (int * int) list;  (* epoch -> seq, sorted by epoch *)
  mutable m_durable : int;
}

let followers = [ 2; 3 ]

let model_floor m =
  let live_acks =
    List.filter_map
      (fun (f, a) -> if List.assoc f m.m_live then Some a else None)
      m.m_acked
  in
  match live_acks with
  | [] -> m.m_len
  | acks -> List.fold_left min max_int acks

let model_refresh m =
  let fl = model_floor m in
  List.iter
    (fun (e, seq) -> if seq <= fl && e > m.m_durable then m.m_durable <- e)
    m.m_barriers

let set_assoc k v l = (k, v) :: List.remove_assoc k l |> List.sort compare

type op =
  | Append
  | Ack of int * int  (* follower index (0|1), raw seq (clamped to len) *)
  | Down of int
  | Rejoin of int
  | Close
  | PrimaryCrash of int  (* raw durable length (clamped to len) *)

let gen_ops =
  let open QCheck2.Gen in
  let op =
    frequency
      [ (6, pure Append);
        (5, map2 (fun f s -> Ack (f, s)) (int_range 0 1) (int_range 0 40));
        (2, map (fun f -> Down f) (int_range 0 1));
        (2, map (fun f -> Rejoin f) (int_range 0 1));
        (3, pure Close);
        (1, map (fun d -> PrimaryCrash d) (int_range 0 40)) ]
  in
  list_size (int_range 1 120) op

let prop_repl_matches_reference =
  QCheck2.Test.make ~name:"repl ack gating = sorted-assoc reference"
    ~count:500 gen_ops (fun ops ->
      let r =
        R.create ~term:1 ~primary:1 ~members:(1 :: followers)
          ~len:0
      in
      let m =
        { m_len = 0;
          m_acked = List.map (fun f -> (f, 0)) followers;
          m_live = List.map (fun f -> (f, true)) followers;
          m_barriers = [];
          m_durable = 0 }
      in
      let next_epoch = ref 0 in
      let violations = ref [] in
      let watch_epoch epoch barrier_seq =
        R.when_epoch_durable r ~epoch (fun () ->
            (* safety: at fire time a surviving replica can replay it *)
            let live =
              List.filter (fun (_, l) -> l) m.m_live |> List.map fst
            in
            List.iter
              (fun f ->
                if List.assoc f m.m_acked < barrier_seq then
                  violations :=
                    Printf.sprintf
                      "epoch %d fired with follower %d acked %d < %d" epoch
                      f (List.assoc f m.m_acked) barrier_seq
                    :: !violations)
              live)
      in
      List.iter
        (fun op ->
          (* The model is updated BEFORE the Repl call: epoch-durable
             gates fire synchronously inside ack/member_down, and the
             safety callback reads the model at fire time. *)
          (match op with
          | Append ->
              m.m_len <- m.m_len + 1;
              ignore (R.append r)
          | Ack (fi, raw) ->
              let f = List.nth followers fi in
              let seq = min raw m.m_len in
              if seq > List.assoc f m.m_acked then
                m.m_acked <- set_assoc f seq m.m_acked;
              R.ack r ~member:f ~seq
          | Down fi ->
              let f = List.nth followers fi in
              m.m_live <- set_assoc f false m.m_live;
              R.member_down r ~id:f
          | Rejoin fi ->
              let f = List.nth followers fi in
              m.m_live <- set_assoc f true m.m_live;
              m.m_acked <- set_assoc f 0 m.m_acked;
              R.member_rejoin r ~id:f
          | Close ->
              incr next_epoch;
              let e = !next_epoch in
              m.m_barriers <- set_assoc e m.m_len m.m_barriers;
              R.close_epoch r ~epoch:e;
              watch_epoch e m.m_len
          | PrimaryCrash raw ->
              let durable = min raw m.m_len in
              m.m_len <- durable;
              m.m_barriers <-
                List.filter (fun (_, s) -> s <= durable) m.m_barriers;
              m.m_acked <- List.map (fun (f, _) -> (f, 0)) m.m_acked;
              R.crash r ~durable_len:durable);
          model_refresh m;
          if R.len r <> m.m_len then
            violations :=
              Printf.sprintf "len %d <> model %d" (R.len r) m.m_len
              :: !violations;
          if R.durable_epoch r <> m.m_durable then
            violations :=
              Printf.sprintf "durable_epoch %d <> model %d"
                (R.durable_epoch r) m.m_durable
              :: !violations;
          let model_lag = max 0 (m.m_len - model_floor m) in
          if R.replica_lag r <> model_lag then
            violations :=
              Printf.sprintf "replica_lag %d <> model %d" (R.replica_lag r)
                model_lag
              :: !violations)
        ops;
      match !violations with
      | [] -> true
      | v :: _ -> QCheck2.Test.fail_report v)

(* ---- behaviour-neutrality differential -------------------------------- *)

(* The cross-engine scripted increment history, run at k = 1 and k = 2
   with zero faults: replication must be invisible — identical committed
   state and EXACTLY identical simulated throughput (the ship plane has
   its own RNG stream and its handlers are off the worker pool, so not
   one data-plane event may shift).  Pinned with a 0.0-epsilon float
   check. *)

let diff_n = 2
let diff_keys =
  List.init 12 (fun i -> Printf.sprintf "c:%d:%d" (i mod diff_n) i)

let diff_batch =
  let rng = Sim.Rng.create 321 in
  List.init 50 (fun _ ->
      let k1 = Sim.Rng.int rng 12 in
      let k2 = Sim.Rng.int rng 12 in
      let delta = 1 + Sim.Rng.int rng 9 in
      ((k1, k2), delta))

let run_aloha ~replicas () =
  let c =
    Alohadb.Engine.create (Kernel.Params.make ~replicas ~n_servers:diff_n ())
  in
  List.iter (fun k -> Alohadb.Engine.load c k (Value.int 0)) diff_keys;
  Alohadb.Engine.start c;
  let remaining = ref diff_batch in
  let gen ~fe:_ =
    match !remaining with
    | [] -> Alcotest.fail "replication differential: generator exhausted"
    | ((k1, k2), delta) :: tl ->
        remaining := tl;
        let ks =
          List.sort_uniq compare
            [ List.nth diff_keys k1; List.nth diff_keys k2 ]
        in
        Kernel.Txn.make (List.map (fun k -> (k, Kernel.Txn.Add delta)) ks)
  in
  let arrivals =
    List.mapi (fun i _ -> (1_000 + (i * 400), i mod diff_n)) diff_batch
  in
  let r =
    Kernel.Run.run
      (module Alohadb.Engine)
      ~cluster:c ~gen
      ~arrival:(Kernel.Arrivals.Scripted { arrivals })
      ~warmup_us:500 ~measure_us:3_000_000 ()
  in
  let totals =
    List.map
      (fun k ->
        match Alohadb.Engine.read_committed c k with
        | Some v -> Value.to_int v
        | None -> 0)
      diff_keys
  in
  Alohadb.Engine.stop c;
  (totals, r)

let test_replicas_behaviour_neutral () =
  let t1, r1 = run_aloha ~replicas:1 () in
  let t2, r2 = run_aloha ~replicas:2 () in
  Alcotest.(check (list int)) "k=2 state = k=1 state" t1 t2;
  Alcotest.(check int) "k=2 committed = k=1" r1.Kernel.Result.committed
    r2.Kernel.Result.committed;
  Alcotest.(check (float 0.0)) "k=2 tps = k=1 tps (exact)"
    r1.Kernel.Result.throughput_tps r2.Kernel.Result.throughput_tps

(* ---- the drop gauge counts every plane ----------------------------------- *)

(* The WAL-ship plane shares the fault oracle with the data and control
   planes, so at k = 2 under loss it drops messages too: the sampled
   [gauge.net_drops] must be the cluster's whole drop count.  Loss stops
   well before the last sample, so nothing is dropped after it. *)
let test_gauge_counts_ship_drops () =
  let faults = Net.Faults.create ~seed:11 () in
  Net.Faults.install faults
    [ Net.Faults.edict Net.Faults.Drop ~p:0.2 ~from_us:2_000 ~until_us:60_000 ];
  let ctl = Obs.Ctl.create () in
  let c =
    Alohadb.Cluster.create
      { Alohadb.Cluster.default_options with
        n_servers;
        faults = Some faults;
        obs = Some ctl;
        config = { Alohadb.Config.default with Alohadb.Config.replicas = 2 } }
  in
  let sim = Alohadb.Cluster.sim c in
  Obs.Ctl.arm ctl ~sim ~for_us:200_000;
  Alohadb.Cluster.start c;
  for i = 0 to 59 do
    Sim.Engine.schedule sim ~at:(1_000 + (i * 1_000)) (fun () ->
        Alohadb.Cluster.submit c ~fe:(i mod n_servers)
          (Alohadb.Txn.read_write
             [ (Printf.sprintf "ctr:%d" (i mod 7), Alohadb.Txn.Add 1) ])
          (fun _ -> ()))
  done;
  Alohadb.Cluster.run_for c 250_000;
  let d = Alohadb.Cluster.drop_stats c in
  let total =
    d.Net.Network.injected + d.partitioned + d.crashed + d.unregistered
  in
  Alcotest.(check bool) "the lossy run dropped messages" true (total > 0);
  let last =
    match
      List.assoc_opt "gauge.net_drops"
        (Obs.Gauges.series (Obs.Ctl.gauges ctl))
    with
    | Some points -> snd (List.nth points (List.length points - 1))
    | None -> Alcotest.fail "no gauge.net_drops series"
  in
  Alcotest.(check int) "gauge = drop_stats" total (int_of_float last)

(* Node 0 leads partition 0, whose group is {0, 1}.  With every message
   from node 0 to node 1 lost, epoch closes at node 0 wait in the close
   gate for follower acks that never come; a backend crash then delivers
   each pending close once, in ascending epoch order. *)
let test_crash_delivers_gated_closes () =
  let faults = Net.Faults.create ~seed:5 () in
  Net.Faults.install faults
    [ Net.Faults.edict ~src:(Net.Address.of_int 0) ~dst:(Net.Address.of_int 1)
        Net.Faults.Drop ~p:1.0 ~from_us:0 ~until_us:100_000 ];
  let ctl = Obs.Ctl.create () in
  let c =
    Alohadb.Cluster.create
      { Alohadb.Cluster.default_options with
        n_servers;
        faults = Some faults;
        obs = Some ctl;
        config = { Alohadb.Config.default with Alohadb.Config.replicas = 2 } }
  in
  let sim = Alohadb.Cluster.sim c in
  Obs.Ctl.arm ctl ~sim ~for_us:300_000;
  Alohadb.Cluster.start c;
  let crash_at = 90_000 in
  Sim.Engine.schedule sim ~at:crash_at (fun () ->
      Alohadb.Server.crash_be (Alohadb.Cluster.server c 0));
  Alohadb.Cluster.run_for c 200_000;
  let closes =
    List.filter_map
      (fun (e : Obs.Trace.event) ->
        if e.stage = Obs.Trace.Epoch_close && e.node = 0 then
          Some (e.ts, e.arg)
        else None)
      (let acc = ref [] in
       Obs.Trace.iter (Obs.Ctl.trace ctl) ~f:(fun e -> acc := e :: !acc);
       List.rev !acc)
  in
  let epochs = List.map snd closes in
  Alcotest.(check bool) "closes at node 0 after the crash" true
    (List.length epochs >= 4);
  Alcotest.(check (list int)) "each epoch once, ascending"
    (List.init (List.length epochs) (fun i -> i + 1))
    epochs;
  Alcotest.(check bool) "none before the crash" true
    (List.for_all (fun (ts, _) -> ts >= crash_at) closes);
  Alcotest.(check bool) "at least two held by the gate" true
    (List.length (List.filter (fun (ts, _) -> ts = crash_at) closes) >= 2)

let suite =
  [ Alcotest.test_case "battery k=2 (crash every backend)" `Slow
      (test_battery 2 [ 1; 2; 3 ]);
    Alcotest.test_case "battery k=3 (crash every backend)" `Slow
      (test_battery 3 [ 4; 5 ]);
    Alcotest.test_case "permanent primary loss" `Slow
      test_permanent_primary_loss;
    Alcotest.test_case "rejoin then promote back" `Slow
      test_rejoin_then_promote_back;
    Alcotest.test_case "failover under message loss" `Slow
      test_failover_under_loss;
    Alcotest.test_case "replication forces durability" `Quick
      test_replication_forces_durability;
    Alcotest.test_case "durability derived from faults and k" `Quick
      test_derived_durability;
    QCheck_alcotest.to_alcotest prop_repl_matches_reference;
    Alcotest.test_case "replicas=2 behaviour-neutral vs replicas=1" `Slow
      test_replicas_behaviour_neutral;
    Alcotest.test_case "net_drops gauge counts the ship plane" `Quick
      test_gauge_counts_ship_drops;
    Alcotest.test_case "crash delivers gated closes once, in order" `Quick
      test_crash_delivers_gated_closes ]
