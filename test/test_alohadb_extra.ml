(* Additional whole-system ALOHA-DB tests: clock skew, same-epoch
   visibility, held requests, the optimistic client flow, and cluster-size
   extremes. *)

module Value = Functor_cc.Value
module Txn = Alohadb.Txn
module Cluster = Alohadb.Cluster

let await c fe req =
  let result = ref None in
  Cluster.submit c ~fe req (fun r -> result := Some r);
  let deadline = Sim.Engine.now (Cluster.sim c) + 1_000_000 in
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

let commit_exn = function
  | Txn.Committed { ts } -> ts
  | r -> Alcotest.failf "expected commit, got %a" Txn.pp_result r

(* Under heavy clock skew the system still serializes: interleaved
   transfers conserve the total balance exactly. *)
let test_clock_skew_conservation () =
  let options =
    { Cluster.default_options with n_servers = 3; clock_skew_us = 3_000 }
  in
  let c = Cluster.create options in
  for i = 0 to 5 do
    Cluster.load c ~key:(Printf.sprintf "skew:%d" i) (Value.int 100)
  done;
  Cluster.start c;
  let sim = Cluster.sim c in
  let rng = Sim.Rng.create 41 in
  let outstanding = ref 0 in
  for i = 0 to 59 do
    incr outstanding;
    let src = Sim.Rng.int rng 6 and dst = Sim.Rng.int rng 6 in
    if src <> dst then
      Sim.Engine.schedule sim ~at:(500 + (i * 700)) (fun () ->
          Cluster.submit c ~fe:(i mod 3)
            (Txn.read_write
               [ (Printf.sprintf "skew:%d" src, Txn.Subtr 7);
                 (Printf.sprintf "skew:%d" dst, Txn.Add 7) ])
            (fun _ -> decr outstanding))
    else decr outstanding
  done;
  Sim.Engine.run ~until:500_000 sim;
  Alcotest.(check int) "all resolved" 0 !outstanding;
  match
    await c 0
      (Txn.Read_only { keys = List.init 6 (Printf.sprintf "skew:%d") })
  with
  | Txn.Values kvs ->
      let total =
        List.fold_left
          (fun acc (_, v) -> acc + Value.to_int (Option.get v))
          0 kvs
      in
      Alcotest.(check int) "balance conserved under skew" 600 total
  | r -> Alcotest.failf "unexpected %a" Txn.pp_result r

(* A latest-version read submitted right after a write in the same epoch
   is serialized after it (its timestamp is higher) and observes it. *)
let test_same_epoch_read_sees_write () =
  let c = Cluster.create { Cluster.default_options with n_servers = 2 } in
  Cluster.load c ~key:"v" (Value.int 1);
  Cluster.start c;
  let sim = Cluster.sim c in
  (* Let the first epoch open. *)
  Sim.Engine.run ~until:2_000 sim;
  let write_done = ref false and read_result = ref None in
  Cluster.submit c ~fe:0
    (Txn.read_write [ ("v", Txn.Put (Value.int 2)) ])
    (fun _ -> write_done := true);
  (* Same instant, same epoch: the read's timestamp is assigned after the
     write's on the same FE clock. *)
  Cluster.submit c ~fe:0 (Txn.Read_only { keys = [ "v" ] }) (fun r ->
      read_result := Some r);
  Sim.Engine.run ~until:200_000 sim;
  Alcotest.(check bool) "write acknowledged" true !write_done;
  (match !read_result with
  | Some (Txn.Values [ ("v", Some v) ]) ->
      Alcotest.(check int) "read serialized after same-epoch write" 2
        (Value.to_int v)
  | Some r -> Alcotest.failf "unexpected %a" Txn.pp_result r
  | None -> Alcotest.fail "read never completed")

(* Requests submitted before the first grant are held, then drain. *)
let test_requests_held_until_first_epoch () =
  let c = Cluster.create { Cluster.default_options with n_servers = 2 } in
  Cluster.load c ~key:"h" (Value.int 0);
  let result = ref None in
  (* Submit BEFORE Cluster.start: no authorization exists yet. *)
  Cluster.submit c ~fe:0
    (Txn.read_write [ ("h", Txn.Add 1) ])
    (fun r -> result := Some r);
  Alcotest.(check int) "held" 1
    (Alohadb.Server.held_requests (Cluster.server c 0));
  Cluster.start c;
  Cluster.run_for c 120_000;
  (match !result with
  | Some (Txn.Committed _) -> ()
  | Some r -> Alcotest.failf "unexpected %a" Txn.pp_result r
  | None -> Alcotest.fail "held request never drained");
  Alcotest.(check int) "queue empty" 0
    (Alohadb.Server.held_requests (Cluster.server c 0))

(* The §IV-E optimistic client flow end-to-end: two clients race a
   conditional decrement on one key; exactly one validates, the other
   aborts and retries. *)
let test_optimistic_flow () =
  let registry = Functor_cc.Registry.with_builtins () in
  Functor_cc.Optimistic.register registry;
  let c =
    Cluster.create ~registry { Cluster.default_options with n_servers = 2 }
  in
  Cluster.load c ~key:"occ" (Value.int 10);
  Cluster.start c;
  let sim = Cluster.sim c in
  let committed = ref 0 and aborted = ref 0 in
  let attempt fe =
    (* read snapshot *)
    Cluster.submit c ~fe (Txn.Read_only { keys = [ "occ" ] }) (function
      | Txn.Values [ (_, Some v) ] ->
          let snapshot = [ ("occ", Some v) ] in
          Cluster.submit c ~fe
            (Txn.read_write
               [ ("occ",
                  Txn.Call
                    { handler = Functor_cc.Optimistic.handler_name;
                      read_set = [ "occ" ];
                      args =
                        [ Functor_cc.Optimistic.encode_snapshot snapshot;
                          Value.int (Value.to_int v - 1) ] }) ])
            (function
              | Txn.Committed _ -> incr committed
              | Txn.Aborted _ -> incr aborted
              | Txn.Values _ -> ())
      | _ -> Alcotest.fail "snapshot read failed")
  in
  (* Both clients snapshot in the same epoch and then write concurrently:
     both validating functors compare against the same snapshot value, and
     the one serialized second sees the first's write and aborts. *)
  Sim.Engine.schedule sim ~at:2_000 (fun () -> attempt 0);
  Sim.Engine.schedule sim ~at:2_100 (fun () -> attempt 1);
  Sim.Engine.run ~until:400_000 sim;
  Alcotest.(check int) "exactly one commits" 1 !committed;
  Alcotest.(check int) "exactly one aborts" 1 !aborted;
  (match await c 0 (Txn.Read_only { keys = [ "occ" ] }) with
  | Txn.Values [ (_, Some v) ] ->
      Alcotest.(check int) "one decrement applied" 9 (Value.to_int v)
  | r -> Alcotest.failf "unexpected %a" Txn.pp_result r)

let test_single_server_cluster () =
  let c = Cluster.create { Cluster.default_options with n_servers = 1 } in
  Cluster.start c;
  ignore (commit_exn (await c 0 (Txn.read_write [ ("x", Txn.Put (Value.int 3)) ])));
  match await c 0 (Txn.Read_only { keys = [ "x" ] }) with
  | Txn.Values [ (_, Some v) ] -> Alcotest.(check int) "value" 3 (Value.to_int v)
  | r -> Alcotest.failf "unexpected %a" Txn.pp_result r

let test_twenty_server_cluster () =
  let options =
    { Cluster.default_options with n_servers = 20 }
  in
  let c = Cluster.create options in
  for i = 0 to 19 do
    Cluster.load c ~key:(Printf.sprintf "w:%d:k" i) (Value.int 0)
  done;
  Cluster.start c;
  let sim = Cluster.sim c in
  let done_count = ref 0 in
  for i = 0 to 19 do
    Sim.Engine.schedule sim ~at:(1_000 + (i * 100)) (fun () ->
        Cluster.submit c ~fe:i
          (Txn.read_write
             [ (Printf.sprintf "w:%d:k" i, Txn.Add 1);
               (Printf.sprintf "w:%d:k" ((i + 7) mod 20), Txn.Add 1) ])
          (function
            | Txn.Committed _ -> incr done_count
            | r -> Alcotest.failf "unexpected %a" Txn.pp_result r))
  done;
  Sim.Engine.run ~until:300_000 sim;
  Alcotest.(check int) "all committed on 20 servers" 20 !done_count

(* Stress: 2000 conflicting increments across epochs — exact total. *)
let test_increment_storm () =
  let c = Cluster.create { Cluster.default_options with n_servers = 4 } in
  Cluster.load c ~key:"storm" (Value.int 0);
  Cluster.start c;
  let sim = Cluster.sim c in
  let resolved = ref 0 in
  for i = 0 to 1_999 do
    Sim.Engine.schedule sim ~at:(500 + (i * 40)) (fun () ->
        Cluster.submit c ~fe:(i mod 4)
          (Txn.read_write [ ("storm", Txn.Add 1) ])
          (fun _ -> incr resolved))
  done;
  Sim.Engine.run ~until:500_000 sim;
  Alcotest.(check int) "all resolved" 2_000 !resolved;
  match await c 0 (Txn.Read_only { keys = [ "storm" ] }) with
  | Txn.Values [ (_, Some v) ] ->
      Alcotest.(check int) "exact count" 2_000 (Value.to_int v)
  | r -> Alcotest.failf "unexpected %a" Txn.pp_result r

let suite =
  [ Alcotest.test_case "clock skew conservation" `Quick
      test_clock_skew_conservation;
    Alcotest.test_case "same-epoch read sees write" `Quick
      test_same_epoch_read_sees_write;
    Alcotest.test_case "held until first epoch" `Quick
      test_requests_held_until_first_epoch;
    Alcotest.test_case "optimistic client flow" `Quick test_optimistic_flow;
    Alcotest.test_case "single server" `Quick test_single_server_cluster;
    Alcotest.test_case "twenty servers" `Quick test_twenty_server_cluster;
    Alcotest.test_case "increment storm" `Quick test_increment_storm ]
