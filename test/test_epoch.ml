(* Epoch manager + participant protocol. *)

module Manager = Epoch.Manager
module Participant = Epoch.Participant

type world = {
  sim : Sim.Engine.t;
  rpc : Epoch.Protocol.rpc;
  metrics : Sim.Metrics.t;
  manager : Manager.t;
  participants : Participant.t array;
}

let mk ?(n = 3) ?(duration_us = 10_000) ?(straggler_opt = true) ?faults () =
  let sim = Sim.Engine.create () in
  let rng = Sim.Rng.create 3 in
  let rpc : Epoch.Protocol.rpc =
    Net.Rpc.create sim rng ~latency:(Net.Latency.constant 100) ?faults ()
  in
  let metrics = Sim.Metrics.create () in
  let em_addr = Net.Address.of_int n in
  let participants =
    Array.init n (fun i ->
        let p =
          Participant.create ~rpc ~addr:(Net.Address.of_int i) ~em:em_addr
            ~clock:(Clocksync.Node_clock.perfect sim) ~straggler_opt ~metrics
            ()
        in
        Participant.serve p
          ~on_open:(fun ~epoch:_ ~lo:_ ~hi:_ -> ())
          ~on_closed:(fun ~epoch:_ -> ());
        p)
  in
  let manager =
    Manager.create ~rpc ~addr:em_addr
      ~fes:(List.init n Net.Address.of_int)
      ~clock:(Clocksync.Node_clock.perfect sim)
      ~config:{ Manager.duration_us } ~metrics ()
  in
  { sim; rpc; metrics; manager; participants }

let run w us = Sim.Engine.run ~until:(Sim.Engine.now w.sim + us) w.sim

let test_epochs_progress () =
  let w = mk () in
  Manager.start w.manager;
  run w 100_000;
  (* ~10 ms epochs over 100 ms: several epochs must have closed. *)
  Alcotest.(check bool) "epochs closed" true (Manager.epochs_closed w.manager >= 5);
  Array.iter
    (fun p ->
      Alcotest.(check int) "participants track the EM"
        (Manager.current_epoch w.manager) (Participant.current_epoch p))
    w.participants

let test_window_validity () =
  let w = mk () in
  Manager.start w.manager;
  run w 5_000;
  (match Participant.window w.participants.(0) with
  | Some win ->
      Alcotest.(check bool) "authorized" true win.Cores.Auth.authorized;
      Alcotest.(check bool) "window sane" true
        (win.Cores.Auth.lo < win.Cores.Auth.hi)
  | None -> Alcotest.fail "no window after grant")

let test_windows_disjoint_across_epochs () =
  let w = mk () in
  Manager.start w.manager;
  (* Sample granted windows over time; validity ranges of different epochs
     must not overlap (serializability depends on it). *)
  let windows = Hashtbl.create 8 in
  let rec sample () =
    (match Participant.window w.participants.(1) with
    | Some win when win.Cores.Auth.authorized ->
        Hashtbl.replace windows win.Cores.Auth.epoch
          (win.Cores.Auth.lo, win.Cores.Auth.hi)
    | Some _ | None -> ());
    if Sim.Engine.now w.sim < 80_000 then
      Sim.Engine.after w.sim 500 sample
  in
  Sim.Engine.after w.sim 1000 sample;
  run w 100_000;
  let sorted =
    Hashtbl.fold (fun e (lo, hi) acc -> (e, lo, hi) :: acc) windows []
    |> List.sort compare
  in
  Alcotest.(check bool) "saw several epochs" true (List.length sorted >= 3);
  let rec check = function
    | (_, _, hi1) :: ((_, lo2, _) :: _ as rest) ->
        Alcotest.(check bool) "disjoint and ordered" true (hi1 < lo2);
        check rest
    | [ _ ] | [] -> ()
  in
  check sorted

let test_inflight_delays_switch () =
  let w = mk ~duration_us:10_000 () in
  Manager.start w.manager;
  run w 5_000;
  (* Hold an in-flight transaction on participant 0 for 30 ms: no epoch can
     close while it is outstanding. *)
  let epoch = Participant.current_epoch w.participants.(0) in
  Participant.txn_started w.participants.(0) ~epoch;
  let closed_before = Manager.epochs_closed w.manager in
  run w 30_000;
  Alcotest.(check int) "switch blocked by straggler" closed_before
    (Manager.epochs_closed w.manager);
  Participant.txn_finished w.participants.(0) ~epoch;
  run w 10_000;
  Alcotest.(check bool) "switch resumes" true
    (Manager.epochs_closed w.manager > closed_before)

let test_straggler_window_bound () =
  let w = mk ~duration_us:10_000 ~straggler_opt:true () in
  Manager.start w.manager;
  run w 5_000;
  let p0 = w.participants.(0) in
  let epoch = Participant.current_epoch p0 in
  (* Make participant 1 a straggler so revocation hangs. *)
  Participant.txn_started w.participants.(1)
    ~epoch:(Participant.current_epoch w.participants.(1));
  run w 15_000;
  (* p0 acked its revoke; with the optimisation it may still start txns,
     without authorization, bounded by finish + next duration (§III-C). *)
  (match Participant.window p0 with
  | Some win ->
      Alcotest.(check bool) "not authorized" false win.Cores.Auth.authorized;
      Alcotest.(check int) "belongs to next epoch" (epoch + 1)
        win.Cores.Auth.epoch;
      (* hi = previous finish + next epoch duration *)
      Alcotest.(check int) "bounded window width" 10_000
        (win.Cores.Auth.hi - win.Cores.Auth.lo + 1)
  | None -> Alcotest.fail "straggler window expected")

let test_no_straggler_opt_blocks () =
  let w = mk ~duration_us:10_000 ~straggler_opt:false () in
  Manager.start w.manager;
  run w 5_000;
  Participant.txn_started w.participants.(1)
    ~epoch:(Participant.current_epoch w.participants.(1));
  run w 15_000;
  Alcotest.(check bool) "no window without the optimisation" true
    (Participant.window w.participants.(0) = None)

let test_on_closed_fires_in_order () =
  let w = mk () in
  let closed = ref [] in
  Participant.serve w.participants.(0)
    ~on_open:(fun ~epoch:_ ~lo:_ ~hi:_ -> ())
    ~on_closed:(fun ~epoch -> closed := epoch :: !closed);
  Manager.start w.manager;
  run w 60_000;
  let seen = List.rev !closed in
  Alcotest.(check bool) "several closures" true (List.length seen >= 3);
  List.iteri
    (fun i e -> Alcotest.(check int) "consecutive epochs" (i + 1) e)
    seen

let test_noauth_accounted_to_next_epoch () =
  let w = mk ~duration_us:10_000 ~straggler_opt:true () in
  Manager.start w.manager;
  run w 5_000;
  let p0 = w.participants.(0) and p1 = w.participants.(1) in
  Participant.txn_started p1 ~epoch:(Participant.current_epoch p1);
  run w 15_000;
  (* p0 starts a transaction without authorization under epoch e+1. *)
  (match Participant.window p0 with
  | Some win ->
      Participant.txn_started p0 ~epoch:win.Cores.Auth.epoch;
      Alcotest.(check int) "counted under next epoch" 1
        (Participant.in_flight p0 ~epoch:win.Cores.Auth.epoch);
      Participant.txn_finished p0 ~epoch:win.Cores.Auth.epoch
  | None -> Alcotest.fail "expected straggler window");
  (* Release the straggler and let the system make progress again. *)
  Participant.txn_finished p1 ~epoch:(Participant.current_epoch p1);
  run w 20_000;
  Alcotest.(check bool) "progress resumed" true
    (Manager.epochs_closed w.manager >= 2)

(* ---- fault paths ------------------------------------------------------ *)

(* With 100 us links, 10 ms epochs and a 500 us lead, epoch 1's window is
   [500, 10_500]: the EM sends Revoke 1 at 10_500, the frontends ack at
   10_600 and the EM (node 3) sends Grant 2 at 10_700.  Faults are decided
   at send time. *)
let em_addr = Net.Address.of_int 3

let drop_edict ?src ?dst ~from_us ~until_us () =
  let faults = Net.Faults.create ~seed:1 () in
  Net.Faults.install faults
    [ Net.Faults.edict ?src ?dst Net.Faults.Drop ~p:1.0 ~from_us ~until_us ];
  faults

(* The epochs [p] opens and closes, newest first. *)
let served_epochs p =
  let opened = ref [] and closed = ref [] in
  Participant.serve p
    ~on_open:(fun ~epoch ~lo:_ ~hi:_ -> opened := epoch :: !opened)
    ~on_closed:(fun ~epoch -> closed := epoch :: !closed);
  (opened, closed)

(* Grant 2 to frontend 0 is lost.  Its straggler start lands in epoch 2,
   so Revoke 2 arrives as an orphan: acked only once that transaction
   drains, after which a late Grant 2 must be ignored.  Grant 3 closes
   epoch 1 as well as epoch 2 at frontend 0. *)
let test_lost_grant_orphan_revoke () =
  let w =
    mk
      ~faults:
        (drop_edict ~dst:(Net.Address.of_int 0) ~from_us:10_650
           ~until_us:10_750 ())
      ()
  in
  let p0 = w.participants.(0) in
  let opened, closed = served_epochs p0 in
  Manager.start w.manager;
  run w 15_000;
  Alcotest.(check int) "grant 2 lost" 1 (Participant.current_epoch p0);
  let win =
    match Participant.window p0 with
    | Some win -> win
    | None -> Alcotest.fail "straggler window expected"
  in
  Alcotest.(check int) "straggler start in epoch 2" 2 win.Cores.Auth.epoch;
  Participant.txn_started p0 ~epoch:2;
  run w 25_000;
  (* Revoke 2 arrived at 20_600 as an orphan with epoch 2 in flight. *)
  Alcotest.(check int) "epoch 2 cannot close" 1
    (Manager.epochs_closed w.manager);
  Participant.txn_finished p0 ~epoch:2;
  Net.Rpc.send w.rpc ~src:em_addr ~dst:(Net.Address.of_int 0)
    (Epoch.Protocol.Grant
       { epoch = 2; lo = 10_501; hi = 20_501; next_duration = 10_000 });
  run w 40_000;
  Alcotest.(check bool) "late grant 2 ignored" false (List.mem 2 !opened);
  Alcotest.(check bool) "epochs keep closing" true
    (Manager.epochs_closed w.manager >= 4);
  Alcotest.(check int) "frontend 0 follows the EM"
    (Manager.current_epoch w.manager) (Participant.current_epoch p0);
  let closed = List.rev !closed in
  Alcotest.(check (list int)) "frontend 0 closes 1, 2, 3, ..."
    (List.init (List.length closed) (fun i -> i + 1))
    closed;
  Alcotest.(check bool) "closes up to epoch 3" true (List.length closed >= 3)

(* Frontend 1's ack for epoch 1 is lost: the EM re-sends the revoke after
   5 ms, only to frontend 1, which re-acks, and the epoch closes. *)
let test_lost_ack_retry () =
  let w =
    mk
      ~faults:
        (drop_edict ~src:(Net.Address.of_int 1) ~dst:em_addr ~from_us:10_550
           ~until_us:10_650 ())
      ()
  in
  let revokes_to = ref [] in
  Net.Rpc.set_trace w.rpc (fun ~src ~dst ->
      let now = Sim.Engine.now w.sim in
      if Net.Address.equal src em_addr && now > 11_000 && now < 15_650 then
        revokes_to := Net.Address.to_int dst :: !revokes_to);
  Manager.start w.manager;
  run w 12_000;
  Alcotest.(check int) "epoch 1 waits for frontend 1" 0
    (Manager.epochs_closed w.manager);
  run w 8_000;
  Alcotest.(check bool) "revoke retried" true
    (Sim.Metrics.get w.metrics "em.revoke_retries" >= 1);
  Alcotest.(check (list int)) "retry goes to frontend 1 only" [ 1 ]
    !revokes_to;
  Alcotest.(check bool) "epoch 1 closed" true
    (Manager.epochs_closed w.manager >= 1)

(* A duplicate Revoke is re-acked, both while the frontend still sits in
   the revoked epoch and after it moved on. *)
let test_duplicate_revoke_reacked () =
  let w = mk () in
  let p1 = w.participants.(1) in
  Manager.start w.manager;
  run w 5_000;
  (* frontend 1 holds epoch 1 open, so frontend 0 stays revoked *)
  Participant.txn_started p1 ~epoch:1;
  run w 7_000;
  let acks () = Sim.Metrics.get w.metrics "fe.revoke_acks" in
  let dup () =
    let before = acks () in
    Net.Rpc.send w.rpc ~src:em_addr ~dst:(Net.Address.of_int 0)
      (Epoch.Protocol.Revoke { epoch = 1 });
    run w 1_000;
    Alcotest.(check int) "duplicate re-acked" (before + 1) (acks ())
  in
  dup ();
  Participant.txn_finished p1 ~epoch:1;
  run w 2_000;
  Alcotest.(check int) "frontend 0 in epoch 2" 2
    (Participant.current_epoch w.participants.(0));
  dup ();
  (* the first re-ack reached the EM while it still waited on epoch 1 *)
  Alcotest.(check int) "the EM drops the stale re-ack" 1
    (Sim.Metrics.get w.metrics "em.stale_acks")

let suite =
  [ Alcotest.test_case "epochs progress" `Quick test_epochs_progress;
    Alcotest.test_case "window validity" `Quick test_window_validity;
    Alcotest.test_case "windows disjoint" `Quick
      test_windows_disjoint_across_epochs;
    Alcotest.test_case "inflight delays switch" `Quick
      test_inflight_delays_switch;
    Alcotest.test_case "straggler window bound" `Quick
      test_straggler_window_bound;
    Alcotest.test_case "no opt blocks" `Quick test_no_straggler_opt_blocks;
    Alcotest.test_case "on_closed order" `Quick test_on_closed_fires_in_order;
    Alcotest.test_case "noauth next epoch" `Quick
      test_noauth_accounted_to_next_epoch;
    Alcotest.test_case "lost grant orphan revoke" `Quick
      test_lost_grant_orphan_revoke;
    Alcotest.test_case "lost ack retried" `Quick test_lost_ack_retry;
    Alcotest.test_case "duplicate revoke re-acked" `Quick
      test_duplicate_revoke_reacked ]
