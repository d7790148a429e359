(* Whole-cluster tests of ALOHA-DB: the Figure-5 bank-transfer scenario,
   read-only delays, in-epoch aborts, and dependent transactions. *)

module Value = Functor_cc.Value
module Txn = Alohadb.Txn
module Cluster = Alohadb.Cluster

let mk_cluster ?(n = 2) ?(registry = Functor_cc.Registry.with_builtins ())
    () =
  let options = { Cluster.default_options with n_servers = n } in
  let c = Cluster.create ~registry options in
  Cluster.start c;
  c

(* Drive the cluster until a submitted request resolves, failing the test
   if it never does. *)
let await c =
  let submit_and_wait fe req =
    let result = ref None in
    Cluster.submit c ~fe req (fun r -> result := Some r);
    (* Generous horizon: several epochs. *)
    let deadline = Sim.Engine.now (Cluster.sim c) + 500_000 in
    let rec spin () =
      if Option.is_none !result && Sim.Engine.now (Cluster.sim c) < deadline
      then begin
        Cluster.run_for c 5_000;
        spin ()
      end
    in
    spin ();
    match !result with
    | Some r -> r
    | None -> Alcotest.fail "request did not complete"
  in
  submit_and_wait

let commit_exn = function
  | Txn.Committed { ts } -> ts
  | r -> Alcotest.failf "expected commit, got %a" Txn.pp_result r

let values_exn = function
  | Txn.Values kvs -> kvs
  | r -> Alcotest.failf "expected values, got %a" Txn.pp_result r

let int_of kvs key =
  match List.assoc key kvs with
  | Some v -> Value.to_int v
  | None -> Alcotest.failf "key %s absent" key

(* T1 of Figure 5: a blind multi-write. *)
let test_blind_write () =
  let c = mk_cluster () in
  let go = await c in
  let r =
    go 0
      (Txn.read_write
         [ ("acct:A", Txn.Put (Value.int 150));
           ("acct:B", Txn.Put (Value.int 100)) ])
  in
  ignore (commit_exn r);
  let kvs = values_exn (go 0 (Txn.Read_only { keys = [ "acct:A"; "acct:B" ] })) in
  Alcotest.(check int) "A" 150 (int_of kvs "acct:A");
  Alcotest.(check int) "B" 100 (int_of kvs "acct:B")

(* T2 of Figure 5: an unconditional transfer via ADD/SUBTR functors. *)
let test_transfer () =
  let c = mk_cluster () in
  let go = await c in
  ignore
    (commit_exn
       (go 0
          (Txn.read_write
             [ ("acct:A", Txn.Put (Value.int 150));
               ("acct:B", Txn.Put (Value.int 100)) ])));
  ignore
    (commit_exn
       (go 1
          (Txn.read_write
             [ ("acct:A", Txn.Subtr 100); ("acct:B", Txn.Add 100) ])));
  let kvs = values_exn (go 0 (Txn.Read_only { keys = [ "acct:A"; "acct:B" ] })) in
  Alcotest.(check int) "A" 50 (int_of kvs "acct:A");
  Alcotest.(check int) "B" 200 (int_of kvs "acct:B")

(* T3 of Figure 5: a conditional transfer that aborts on insufficient
   funds.  Both functors read A and must reach the same abort decision. *)
let transfer_handler (ctx : Functor_cc.Registry.ctx) =
  let a = Functor_cc.Registry.read ctx "acct:A" in
  let amount = Value.to_int (Functor_cc.Registry.arg ctx 0) in
  match a with
  | None -> Functor_cc.Registry.Abort
  | Some a_v ->
      let balance = Value.to_int a_v in
      if balance < amount then Functor_cc.Registry.Abort
      else begin
        let own =
          match Functor_cc.Registry.read ctx ctx.Functor_cc.Registry.key with
          | Some v -> Value.to_int v
          | None -> 0
        in
        let delta =
          Value.to_int (Functor_cc.Registry.arg ctx 1)
        in
        Functor_cc.Registry.Commit (Value.int (own + delta))
      end

let registry_with_transfer () =
  let r = Functor_cc.Registry.with_builtins () in
  Functor_cc.Registry.register r "guarded_transfer" transfer_handler;
  r

let conditional_transfer amount =
  Txn.read_write
    [ ("acct:A",
       Txn.Call
         { handler = "guarded_transfer";
           read_set = [ "acct:A" ];
           args = [ Value.int amount; Value.int (-amount) ] });
      ("acct:B",
       Txn.Call
         { handler = "guarded_transfer";
           read_set = [ "acct:A"; "acct:B" ];
           args = [ Value.int amount; Value.int amount ] }) ]

let test_conditional_transfer_abort () =
  let c = mk_cluster ~registry:(registry_with_transfer ()) () in
  let go = await c in
  ignore
    (commit_exn
       (go 0
          (Txn.read_write
             [ ("acct:A", Txn.Put (Value.int 150));
               ("acct:B", Txn.Put (Value.int 100)) ])));
  (* First transfer succeeds (A = 150 >= 100)... *)
  ignore (commit_exn (go 1 (conditional_transfer 100)));
  (* ...second aborts (A = 50 < 100), exactly as in Figure 5. *)
  (match go 0 (conditional_transfer 100) with
  | Txn.Aborted { stage = `Compute; _ } -> ()
  | r -> Alcotest.failf "expected compute abort, got %a" Txn.pp_result r);
  let kvs = values_exn (go 1 (Txn.Read_only { keys = [ "acct:A"; "acct:B" ] })) in
  Alcotest.(check int) "A" 50 (int_of kvs "acct:A");
  Alcotest.(check int) "B" 200 (int_of kvs "acct:B")

(* In-epoch abort: a precondition key that does not exist triggers the
   coordinator's second-round rollback, and no write becomes visible. *)
let test_install_abort_rolls_back () =
  let c = mk_cluster () in
  let go = await c in
  ignore
    (commit_exn
       (go 0 (Txn.read_write [ ("acct:A", Txn.Put (Value.int 150)) ])));
  (match
     go 0
       (Txn.read_write
          ~precondition_keys:[ "missing:item" ]
          [ ("acct:A", Txn.Put (Value.int 999));
            ("missing:item", Txn.Put (Value.int 1)) ])
   with
  | Txn.Aborted { stage = `Install; _ } -> ()
  | r -> Alcotest.failf "expected install abort, got %a" Txn.pp_result r);
  let kvs = values_exn (go 0 (Txn.Read_only { keys = [ "acct:A" ] })) in
  Alcotest.(check int) "A unchanged" 150 (int_of kvs "acct:A")

(* §IV-E key dependency: write "dep:B" only if "det:A" exceeds a
   threshold; the determinate functor decides. *)
let det_handler (ctx : Functor_cc.Registry.ctx) =
  let a =
    match Functor_cc.Registry.read ctx "det:A" with
    | Some v -> Value.to_int v
    | None -> 0
  in
  let threshold = Value.to_int (Functor_cc.Registry.arg ctx 0) in
  if a >= threshold then
    Functor_cc.Registry.Commit_det
      ( Value.int (a - threshold),
        [ ("dep:B", Functor_cc.Registry.Dep_put (Value.int threshold)) ] )
  else Functor_cc.Registry.Commit_det (Value.int a, [ ("dep:B", Functor_cc.Registry.Dep_skip) ])

let registry_with_det () =
  let r = Functor_cc.Registry.with_builtins () in
  Functor_cc.Registry.register r "det_conditional" det_handler;
  r

let det_txn threshold =
  Txn.read_write
    [ ("det:A",
       Txn.Det
         { handler = "det_conditional";
           read_set = [ "det:A" ];
           args = [ Value.int threshold ];
           dependents = [ "dep:B" ] }) ]

let test_dependent_write_taken () =
  let c = mk_cluster ~registry:(registry_with_det ()) () in
  let go = await c in
  ignore
    (commit_exn
       (go 0 (Txn.read_write [ ("det:A", Txn.Put (Value.int 100)) ])));
  ignore (commit_exn (go 0 (det_txn 60)));
  let kvs =
    values_exn (go 1 (Txn.Read_only { keys = [ "det:A"; "dep:B" ] }))
  in
  Alcotest.(check int) "A" 40 (int_of kvs "det:A");
  Alcotest.(check int) "B" 60 (int_of kvs "dep:B")

let test_dependent_write_skipped () =
  let c = mk_cluster ~registry:(registry_with_det ()) () in
  let go = await c in
  ignore
    (commit_exn
       (go 0
          (Txn.read_write
             [ ("det:A", Txn.Put (Value.int 100));
               ("dep:B", Txn.Put (Value.int 7)) ])));
  ignore (commit_exn (go 0 (det_txn 500)));
  let kvs =
    values_exn (go 1 (Txn.Read_only { keys = [ "det:A"; "dep:B" ] }))
  in
  Alcotest.(check int) "A unchanged" 100 (int_of kvs "det:A");
  Alcotest.(check int) "B keeps old value" 7 (int_of kvs "dep:B")

(* Historical reads return the state as of the requested version. *)
let test_historical_read () =
  let c = mk_cluster () in
  let go = await c in
  let ts1 =
    commit_exn (go 0 (Txn.read_write [ ("k", Txn.Put (Value.int 1)) ]))
  in
  ignore (commit_exn (go 0 (Txn.read_write [ ("k", Txn.Put (Value.int 2)) ])));
  let kvs =
    values_exn
      (go 1
         (Txn.Read_at
            { keys = [ "k" ]; version = Clocksync.Timestamp.to_int ts1 }))
  in
  Alcotest.(check int) "old version" 1 (int_of kvs "k")

let test_read_absent_key () =
  let c = mk_cluster () in
  let go = await c in
  let kvs = values_exn (go 0 (Txn.Read_only { keys = [ "nope" ] })) in
  (match List.assoc "nope" kvs with
  | None -> ()
  | Some v -> Alcotest.failf "expected absent, got %a" Value.pp v)

let test_delete () =
  let c = mk_cluster () in
  let go = await c in
  ignore (commit_exn (go 0 (Txn.read_write [ ("k", Txn.Put (Value.int 5)) ])));
  ignore (commit_exn (go 0 (Txn.read_write [ ("k", Txn.Delete) ])));
  let kvs = values_exn (go 0 (Txn.Read_only { keys = [ "k" ] })) in
  (match List.assoc "k" kvs with
  | None -> ()
  | Some v -> Alcotest.failf "expected tombstone, got %a" Value.pp v)

(* Cross-partition transfers: the destination functor reads the source
   account, owned by the other server.  With the §IV-B push optimisation
   off, neither recipient-set pushes nor the planner's subscriptions
   (which ride the same push path) may carry the value: every such read
   is a remote read. *)
let xfer_handler (ctx : Functor_cc.Registry.ctx) =
  let own =
    match Functor_cc.Registry.read ctx ctx.Functor_cc.Registry.key with
    | Some v -> Value.to_int v
    | None -> 0
  in
  Functor_cc.Registry.Commit
    (Value.int (own + Value.to_int (Functor_cc.Registry.arg ctx 0)))

let run_transfers ?(same_partition = false) ~push_opt () =
  let registry = Functor_cc.Registry.with_builtins () in
  Functor_cc.Registry.register registry "xfer" xfer_handler;
  let c =
    Cluster.create ~registry
      { Cluster.default_options with
        n_servers = 2;
        config = { Alohadb.Config.default with push_opt } }
  in
  let acct p i = Printf.sprintf "a:%d:%d" p i in
  (* Sources are accounts 0-3 of partition 0; destinations accounts 4-7
     of partition 0 or of partition 1. *)
  let dst_partition = if same_partition then 0 else 1 in
  let accounts =
    List.init 4 (acct 0) @ List.init 4 (fun i -> acct dst_partition (4 + i))
  in
  List.iter (fun k -> Cluster.load c ~key:k (Value.int 100)) accounts;
  Cluster.start c;
  let committed = ref 0 in
  for i = 0 to 15 do
    let src = acct 0 (i mod 4) and dst = acct dst_partition (4 + (i / 4)) in
    Cluster.submit c ~fe:(i mod 2)
      (Txn.read_write
         [ (src,
            Txn.Call
              { handler = "xfer"; read_set = [ src ];
                args = [ Value.int (-1) ] });
           (dst,
            Txn.Call
              { handler = "xfer"; read_set = [ src; dst ];
                args = [ Value.int 1 ] }) ])
      (function Txn.Committed _ -> incr committed | _ -> ())
  done;
  Cluster.run_for c 500_000;
  Alcotest.(check int) "all transfers commit" 16 !committed;
  let values = values_exn (await c 0 (Txn.Read_only { keys = accounts })) in
  Alcotest.(check int) "money conserved" 800
    (List.fold_left (fun acc (k, _) -> acc + int_of values k) 0 values);
  Sim.Metrics.get (Cluster.metrics c)

let test_push_off_no_plan_subs () =
  let off = run_transfers ~push_opt:false () in
  Alcotest.(check int) "push_hits" 0 (off "fcc.push_hits");
  Alcotest.(check int) "plan subs sent" 0 (off "plan.subs_sent");
  Alcotest.(check bool) "remote reads instead" true (off "fcc.remote_reads" > 0);
  let on = run_transfers ~push_opt:true () in
  Alcotest.(check bool) "push on: pushes hit" true (on "fcc.push_hits" > 0)

(* The frontend's recipient rule: a functor pushes its value to a
   sibling that reads it only when the reader lives on another partition,
   and only with push_opt on.  Each cross-partition transfer has one such
   reader (dst reads src); a same-partition transfer has none. *)
let test_pushes_to_remote_readers () =
  let pushes ?same_partition push_opt =
    run_transfers ?same_partition ~push_opt () "fcc.pushes_sent"
  in
  Alcotest.(check int) "cross-partition reader" 16 (pushes true);
  Alcotest.(check int) "same-partition reader" 0
    (pushes ~same_partition:true true);
  Alcotest.(check int) "push_opt off" 0 (pushes false)

(* An empty read-write transaction has nothing to install, yet it holds
   its epoch open until it finishes: it must commit at once with its
   timestamp, or the epoch's revoke is never acked and no epoch closes
   again. *)
let test_empty_read_write () =
  let c = mk_cluster () in
  let sim = Cluster.sim c in
  let closed () = Sim.Metrics.get (Cluster.metrics c) "em.epochs_closed" in
  Cluster.run_for c 50_000;
  let empty = ref None in
  Cluster.submit c ~fe:0 (Txn.read_write []) (fun r -> empty := Some r);
  let closed_at_submit = closed () in
  let committed = ref 0 in
  for i = 0 to 19 do
    Sim.Engine.schedule sim
      ~at:(Sim.Engine.now sim + 5_000 + (i * 10_000))
      (fun () ->
        Cluster.submit c ~fe:(i mod 2)
          (Txn.read_write [ (Printf.sprintf "ctr:%d" (i mod 4), Txn.Add 1) ])
          (function Txn.Committed _ -> incr committed | _ -> ()))
  done;
  Cluster.run_for c 600_000;
  (match !empty with
  | Some r -> ignore (commit_exn r)
  | None -> Alcotest.fail "empty transaction never answered");
  Alcotest.(check int) "later transactions commit" 20 !committed;
  Alcotest.(check bool) "epochs keep closing" true
    (closed () - closed_at_submit >= 10)

(* ---- qcheck: the frontend's completion tracker ------------------------ *)

(* One coordinated transaction over [n] partitions (0: the empty
   read-write shape), driven by a random interleaving of its install acks
   (one per partition, ok or rejected), Batch_dones from the partitions
   that installed (each 0-3 times: lost, delivered, duplicated), arriving
   before, between and after the acks.  The driver acts as the frontend
   does: it asks for the verdict after the last ok ack and after each new
   Batch_done, and records every terminal decision. *)
module Tracker = Alohadb.Tracker

type shape = {
  oks : bool list;  (* install verdict per partition *)
  dones : int list;  (* Batch_done copies per partition *)
  aborts : bool list;  (* whether the partition's batch reports an abort *)
  order : int list;  (* shuffle keys, one per event *)
}

type event = Ack of int | Done of int

let gen_shape =
  let open QCheck2.Gen in
  let* n = frequency [ (1, pure 0); (6, int_range 1 4) ] in
  let* oks = list_repeat n (frequency [ (4, pure true); (1, pure false) ]) in
  let* dones = list_repeat n (frequency [ (1, pure 0); (4, int_range 1 3) ]) in
  let* aborts = list_repeat n (frequency [ (5, pure false); (1, pure true) ]) in
  let+ order = list_repeat (n * 4) (int_bound 1_000) in
  { oks; dones; aborts; order }

let print_shape s =
  let ints l = String.concat ";" (List.map string_of_int l) in
  let bools l = String.concat ";" (List.map string_of_bool l) in
  Printf.sprintf "oks=[%s] dones=[%s] aborts=[%s] order=[%s]" (bools s.oks)
    (ints s.dones) (bools s.aborts) (ints s.order)

let events_of s =
  let events =
    List.concat
      (List.mapi
         (fun p ok ->
           Ack p
           :: (if ok then List.init (List.nth s.dones p) (fun _ -> Done p)
               else []))
         s.oks)
  in
  List.mapi (fun i e -> (List.nth s.order i, i, e)) events
  |> List.sort compare
  |> List.map (fun (_, _, e) -> e)

let prop_tracker =
  QCheck2.Test.make ~name:"tracker: one verdict, commit iff all in" ~count:1000
    ~print:print_shape gen_shape (fun s ->
      let n = List.length s.oks in
      let tr =
        Tracker.create ~ts:(Clocksync.Timestamp.of_int 1) ~epoch:1
          ~issued_at:0 ~reply:ignore ~partitions:n
      in
      let terminals = ref [] in
      let acks_in = ref 0 and dones_in = ref [] in
      let fail fmt = Printf.ksprintf QCheck2.Test.fail_report fmt in
      let ask () =
        match Tracker.verdict tr with
        | Tracker.Open -> ()
        | (Tracker.Committed | Tracker.Aborted) as v ->
            if !acks_in < n || List.length !dones_in < n then
              fail "completed early (%d acks, %d partitions done)" !acks_in
                (List.length !dones_in);
            terminals := `Done v :: !terminals
      in
      if n = 0 then begin
        ask ()
      end;
      List.iter
        (function
          | Ack p -> (
              incr acks_in;
              match
                Tracker.install_ack tr ~partition:p ~ok:(List.nth s.oks p)
                  ~now:1
              with
              | Tracker.Installing -> ()
              | Tracker.Installed -> ask ()
              | Tracker.Install_rejected ->
                  terminals :=
                    `Rejected (List.sort compare tr.Tracker.acked_ok)
                    :: !terminals)
          | Done p ->
              let before = Tracker.verdict tr in
              let fresh =
                Tracker.batch_done tr ~partition:p
                  ~aborted:(List.nth s.aborts p) ~max_retrieved_at:2
              in
              if fresh = List.mem p !dones_in then
                fail "partition %d: new=%b on its %s Batch_done" p fresh
                  (if fresh then "repeated" else "first");
              if fresh then begin
                dones_in := p :: !dones_in;
                ask ()
              end
              else if Tracker.verdict tr <> before then
                fail "a duplicate Batch_done changed the verdict")
        (events_of s);
      let all_ok = List.for_all Fun.id s.oks in
      let ok_parts =
        List.concat (List.mapi (fun p ok -> if ok then [ p ] else []) s.oks)
      in
      let expected =
        if not all_ok then [ `Rejected ok_parts ]
        else if List.exists (fun d -> d = 0) s.dones then []
        else if List.exists Fun.id s.aborts then [ `Done Tracker.Aborted ]
        else [ `Done Tracker.Committed ]
      in
      if !terminals <> expected then
        fail "%d terminal verdicts, expected %d" (List.length !terminals)
          (List.length expected);
      true)

let suite =
  [ Alcotest.test_case "blind multi-write (Fig 5 T1)" `Quick test_blind_write;
    Alcotest.test_case "add/subtr transfer (Fig 5 T2)" `Quick test_transfer;
    Alcotest.test_case "conditional transfer aborts (Fig 5 T3)" `Quick
      test_conditional_transfer_abort;
    Alcotest.test_case "install abort rolls back" `Quick
      test_install_abort_rolls_back;
    Alcotest.test_case "dependent write taken" `Quick
      test_dependent_write_taken;
    Alcotest.test_case "dependent write skipped" `Quick
      test_dependent_write_skipped;
    Alcotest.test_case "historical read" `Quick test_historical_read;
    Alcotest.test_case "read absent key" `Quick test_read_absent_key;
    Alcotest.test_case "delete tombstone" `Quick test_delete;
    Alcotest.test_case "push off sends no plan subscriptions" `Quick
      test_push_off_no_plan_subs;
    Alcotest.test_case "pushes only to remote readers" `Quick
      test_pushes_to_remote_readers;
    Alcotest.test_case "empty read-write commits" `Quick
      test_empty_read_write;
    QCheck_alcotest.to_alcotest prop_tracker ]
