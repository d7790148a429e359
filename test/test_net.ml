(* Network layer: addresses, latency models, message delivery, RPC,
   partitioning. *)

let addr = Net.Address.of_int

let mk_net () =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create 11 in
  let net : int Net.Network.t =
    Net.Network.create e rng ~latency:Net.Latency.lan ()
  in
  (e, net)

let test_address () =
  Alcotest.(check int) "roundtrip" 7 (Net.Address.to_int (addr 7));
  Alcotest.(check bool) "equal" true (Net.Address.equal (addr 3) (addr 3));
  Alcotest.check_raises "negative"
    (Invalid_argument "Address.of_int: negative id") (fun () ->
      ignore (addr (-1)))

let test_latency_bounds () =
  let rng = Sim.Rng.create 3 in
  let seen = Array.make 41 false in
  for _ = 1 to 1000 do
    let s = Net.Latency.sample Net.Latency.lan rng in
    if s < 80 || s > 120 then Alcotest.failf "lan out of bounds: %d" s;
    seen.(s - 80) <- true
  done;
  Alcotest.(check bool) "both ends drawn" true (seen.(0) && seen.(40));
  let c = Net.Latency.constant 42 in
  Alcotest.(check int) "constant" 42 (Net.Latency.sample c rng)

let test_delivery () =
  let e, net = mk_net () in
  let got = ref [] in
  Net.Network.register net (addr 1) (fun ~src msg ->
      got := (Net.Address.to_int src, msg) :: !got);
  Net.Network.send net ~src:(addr 0) ~dst:(addr 1) 99;
  Sim.Engine.run e;
  Alcotest.(check (list (pair int int))) "delivered" [ (0, 99) ] !got

let test_fifo_per_link () =
  let e, net = mk_net () in
  let got = ref [] in
  Net.Network.register net (addr 1) (fun ~src:_ msg -> got := msg :: !got);
  for i = 1 to 50 do
    Net.Network.send net ~src:(addr 0) ~dst:(addr 1) i
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "in order" (List.init 50 (fun i -> i + 1))
    (List.rev !got)

let test_drop_unregistered () =
  let e, net = mk_net () in
  Net.Network.send net ~src:(addr 0) ~dst:(addr 9) 1;
  Sim.Engine.run e;
  Alcotest.(check int) "dropped" 1
    (Net.Network.drop_stats net).Net.Network.unregistered

(* Each drop cause lands under its own counter: injected edicts,
   partition windows and unregistered addresses; no fault counts a crash
   drop. *)
let test_drop_accounting () =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create 11 in
  let faults = Net.Faults.create ~seed:7 () in
  let net : int Net.Network.t =
    Net.Network.create e rng ~latency:(Net.Latency.constant 10) ~faults ()
  in
  let got = ref 0 in
  List.iter
    (fun i -> Net.Network.register net (addr i) (fun ~src:_ _ -> incr got))
    [ 1; 2 ];
  Net.Faults.install faults
    [ Net.Faults.edict ~dst:(addr 1) Net.Faults.Drop ~p:1.0 ~from_us:0
        ~until_us:1_000 ];
  Net.Faults.partition faults ~group:[ addr 2 ] ~from_us:0 ~until_us:1_000;
  Net.Network.send net ~src:(addr 0) ~dst:(addr 1) 1;
  Net.Network.send net ~src:(addr 0) ~dst:(addr 2) 2;
  Net.Network.send net ~src:(addr 0) ~dst:(addr 9) 3;
  Sim.Engine.run e;
  let d = Net.Network.drop_stats net in
  Alcotest.(check int) "injected" 1 d.Net.Network.injected;
  Alcotest.(check int) "partitioned" 1 d.Net.Network.partitioned;
  Alcotest.(check int) "crashed" 0 d.Net.Network.crashed;
  Alcotest.(check int) "unregistered" 1 d.Net.Network.unregistered;
  Alcotest.(check int) "total" 3 (Net.Network.total_drops d);
  Alcotest.(check int) "nothing delivered" 0 !got

(* Address 0 is the caller: it serves (one-way) so replies route back. *)
let mk_rpc () =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create 11 in
  let rpc : (string, string) Net.Rpc.t =
    Net.Rpc.create e rng ~latency:(Net.Latency.constant 100) ()
  in
  Net.Rpc.serve_oneway rpc (addr 0) (fun ~src:_ _ -> ());
  (e, rpc)

let test_rpc_roundtrip () =
  let e, rpc = mk_rpc () in
  Net.Rpc.serve rpc (addr 1) (fun ~src:_ req ~reply ->
      reply (String.uppercase_ascii req));
  let answer = ref None in
  Net.Rpc.call rpc ~src:(addr 0) ~dst:(addr 1) "ping" (fun r ->
      answer := Some (r, Sim.Engine.now e));
  Sim.Engine.run e;
  (match !answer with
  | Some ("PING", t) -> Alcotest.(check int) "one RTT" 200 t
  | Some (r, _) -> Alcotest.failf "wrong reply %s" r
  | None -> Alcotest.fail "no reply")

let test_rpc_deferred_reply () =
  let e, rpc = mk_rpc () in
  Net.Rpc.serve rpc (addr 1) (fun ~src:_ req ~reply ->
      (* Reply asynchronously after internal work. *)
      Sim.Engine.after e 500 (fun () -> reply req));
  let got = ref false in
  Net.Rpc.call rpc ~src:(addr 0) ~dst:(addr 1) "x" (fun _ -> got := true);
  Sim.Engine.run e;
  Alcotest.(check bool) "deferred reply arrives" true !got;
  Alcotest.(check int) "no outstanding calls" 0 (Net.Rpc.outstanding_calls rpc)

let test_rpc_double_reply_rejected () =
  let e, rpc = mk_rpc () in
  let saw_failure = ref false in
  Net.Rpc.serve rpc (addr 1) (fun ~src:_ req ~reply ->
      reply req;
      match reply req with
      | () -> ()
      | exception Failure _ -> saw_failure := true);
  Net.Rpc.call rpc ~src:(addr 0) ~dst:(addr 1) "x" (fun _ -> ());
  Sim.Engine.run e;
  Alcotest.(check bool) "double reply raises" true !saw_failure

let test_rpc_oneway () =
  let e, rpc = mk_rpc () in
  let got = ref [] in
  Net.Rpc.serve_oneway rpc (addr 2) (fun ~src msg ->
      got := (Net.Address.to_int src, msg) :: !got);
  Net.Rpc.send rpc ~src:(addr 0) ~dst:(addr 2) "hello";
  Sim.Engine.run e;
  Alcotest.(check (list (pair int string))) "oneway" [ (0, "hello") ] !got

let test_partitioner_prefix () =
  let p = Net.Partitioner.by_prefix_int ~partitions:8 in
  Alcotest.(check int) "w:3 routes to 3" 3
    (Net.Partitioner.partition_of p "w:3:stock:17");
  Alcotest.(check int) "w:11 wraps" 3
    (Net.Partitioner.partition_of p "w:11:dist:0");
  (* No prefix: falls back to hashing, still in range. *)
  let v = Net.Partitioner.partition_of p "noprefix" in
  Alcotest.(check bool) "hash fallback in range" true (v >= 0 && v < 8)

let test_partitioner_hash_spread () =
  (* no ':' in these keys: every one is hashed *)
  let p = Net.Partitioner.by_prefix_int ~partitions:4 in
  let counts = Array.make 4 0 in
  for i = 0 to 9999 do
    let k = Printf.sprintf "key-%d" i in
    let part = Net.Partitioner.partition_of p k in
    counts.(part) <- counts.(part) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true (c > 2000 && c < 3000))
    counts

(* With max_int partitions a key without a prefix routes to its raw
   FNV-1a hash, so the hash itself shows. *)
let test_fnv_deterministic () =
  let hash =
    Net.Partitioner.partition_of
      (Net.Partitioner.by_prefix_int ~partitions:max_int)
  in
  Alcotest.(check int) "same input same hash" (hash "abc") (hash "abc");
  Alcotest.(check bool) "different inputs differ" true
    (hash "abc" <> hash "abd");
  Alcotest.(check bool) "non-negative" true (hash "x" >= 0)

(* qcheck: FIFO holds for any message batch on a link. *)
let prop_fifo =
  QCheck2.Test.make ~name:"network FIFO per link" ~count:50
    QCheck2.Gen.(list_size (int_range 1 100) (int_bound 1000))
    (fun msgs ->
      let e, net = mk_net () in
      let got = ref [] in
      Net.Network.register net (addr 1) (fun ~src:_ m -> got := m :: !got);
      List.iter (fun m -> Net.Network.send net ~src:(addr 0) ~dst:(addr 1) m) msgs;
      Sim.Engine.run e;
      List.rev !got = msgs)

let suite =
  [ Alcotest.test_case "address" `Quick test_address;
    Alcotest.test_case "latency bounds" `Quick test_latency_bounds;
    Alcotest.test_case "delivery" `Quick test_delivery;
    Alcotest.test_case "fifo per link" `Quick test_fifo_per_link;
    Alcotest.test_case "drop unregistered" `Quick test_drop_unregistered;
    Alcotest.test_case "drop accounting" `Quick test_drop_accounting;
    Alcotest.test_case "rpc roundtrip" `Quick test_rpc_roundtrip;
    Alcotest.test_case "rpc deferred reply" `Quick test_rpc_deferred_reply;
    Alcotest.test_case "rpc double reply" `Quick test_rpc_double_reply_rejected;
    Alcotest.test_case "rpc oneway" `Quick test_rpc_oneway;
    Alcotest.test_case "partitioner prefix" `Quick test_partitioner_prefix;
    Alcotest.test_case "partitioner hash spread" `Quick
      test_partitioner_hash_spread;
    Alcotest.test_case "fnv deterministic" `Quick test_fnv_deterministic;
    QCheck_alcotest.to_alcotest prop_fifo ]
