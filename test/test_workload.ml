(* Workload-level integration tests: TPC-C invariants on both engines,
   Scaled TPC-C, YCSB.  Workloads produce engine-neutral Kernel.Txn
   values; these tests submit them through the ENGINE adapters. *)

module Value = Functor_cc.Value
module Tpcc = Workload.Tpcc
module Stpcc = Workload.Scaled_tpcc
module Ycsb = Workload.Ycsb

let n = 2

let small_tpcc_cfg =
  { (Tpcc.default_cfg ~n_servers:n ~warehouses_per_host:1) with
    Tpcc.items = 50;
    customers = 10;
    invalid_item_fraction = 0.1 (* exaggerate to exercise aborts *) }

(* ---- ALOHA TPC-C --------------------------------------------------------- *)

(* Alohadb.Engine's cluster is the native cluster, so native inspection
   (scans below) composes with the adapter's submit path. *)
let aloha_cluster load_workload =
  let c = Alohadb.Engine.create (Kernel.Params.make ~n_servers:n ()) in
  load_workload c;
  Alohadb.Engine.start c;
  c

let run_aloha_tpcc ~payments ~neworders =
  let c =
    aloha_cluster (fun c ->
        Tpcc.Neworder.register small_tpcc_cfg
          ~register:(Alohadb.Engine.register c);
        Tpcc.Neworder.load small_tpcc_cfg ~n_servers:n
          ~put:(Alohadb.Engine.load c))
  in
  let neworder = Tpcc.Neworder.generator small_tpcc_cfg ~n_servers:n ~seed:5 in
  let payment = Tpcc.Payment.generator small_tpcc_cfg ~n_servers:n ~seed:6 in
  let committed_no = ref 0 and aborted_no = ref 0 in
  let committed_pay = ref 0 and pay_total = ref 0 in
  let outstanding = ref 0 in
  let sim = Alohadb.Cluster.sim c in
  for i = 0 to neworders - 1 do
    incr outstanding;
    let fe = i mod n in
    Sim.Engine.schedule sim ~at:(1_000 + (i * 37)) (fun () ->
        Alohadb.Engine.submit c ~fe (neworder ~fe)
          ~k:(fun reply ->
            decr outstanding;
            match reply with
            | Kernel.Txn.Ok -> incr committed_no
            | Kernel.Txn.Aborted _ -> incr aborted_no))
  done;
  for i = 0 to payments - 1 do
    incr outstanding;
    let fe = i mod n in
    Sim.Engine.schedule sim ~at:(2_000 + (i * 41)) (fun () ->
        (* The payment amount h appears as Add h on both the wytd and dytd
           keys; extract it so the invariants can track the total. *)
        let txn = payment ~fe in
        let amount =
          List.fold_left
            (fun acc (_, op) ->
              match op with Kernel.Txn.Add h -> acc + h | _ -> acc)
            0
            (Kernel.Txn.functor_form txn).Kernel.Txn.writes
          / 2 (* wytd and dytd both add h *)
        in
        Alohadb.Engine.submit c ~fe txn ~k:(fun reply ->
            decr outstanding;
            match reply with
            | Kernel.Txn.Ok ->
                incr committed_pay;
                pay_total := !pay_total + amount
            | Kernel.Txn.Aborted _ -> ()))
  done;
  Sim.Engine.run ~until:600_000 sim;
  Alcotest.(check int) "all resolved" 0 !outstanding;
  (c, !committed_no, !aborted_no, !committed_pay, !pay_total)

(* Enumerate a partition's committed latest values by key prefix. *)
let aloha_scan c ~prefix =
  let acc = ref [] in
  for i = 0 to Alohadb.Cluster.n_servers c - 1 do
    let engine = Alohadb.Server.engine (Alohadb.Cluster.server c i) in
    let table = Functor_cc.Compute_engine.table engine in
    List.iter
      (fun key ->
        let name = Mvstore.Key.name key in
        if String.length name >= String.length prefix
           && String.sub name 0 (String.length prefix) = prefix
        then begin
          let got = ref None in
          Functor_cc.Compute_engine.get engine ~key ~version:max_int
            (fun v -> got := Some v);
          match !got with
          | Some (Some v) -> acc := (name, v) :: !acc
          | Some None -> ()
          | None -> Alcotest.fail "scan read did not resolve"
        end)
      (Mvstore.Table.fold_chains table ~init:[] ~f:(fun k _ acc -> k :: acc))
  done;
  !acc

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_aloha_tpcc_neworder_invariants () =
  let c, committed, aborted, _, _ = run_aloha_tpcc ~payments:0 ~neworders:120 in
  Alcotest.(check int) "all accounted" 120 (committed + aborted);
  Alcotest.(check bool) "some aborted (10% invalid items)" true (aborted > 0);
  Alcotest.(check bool) "most committed" true (committed > aborted);
  (* Order-id consistency: sum over districts of (next_o_id - 1) equals
     the number of committed NewOrders, and order/neworder rows match. *)
  let dnoid_sum =
    aloha_scan c ~prefix:"w:"
    |> List.filter (fun (k, _) -> contains_sub k ":dnoid:")
    |> List.fold_left (fun acc (_, v) -> acc + (Value.to_int v - 1)) 0
  in
  Alcotest.(check int) "district counters = committed orders" committed
    dnoid_sum;
  let orders =
    aloha_scan c ~prefix:"w:"
    |> List.filter (fun (k, _) -> contains_sub k ":order:")
  in
  Alcotest.(check int) "order rows = committed orders" committed
    (List.length orders);
  let neworders =
    aloha_scan c ~prefix:"w:"
    |> List.filter (fun (k, _) -> contains_sub k ":no:")
  in
  Alcotest.(check int) "neworder rows = committed orders" committed
    (List.length neworders);
  (* Order lines: every committed order has exactly ol_cnt line rows. *)
  let ol_count =
    aloha_scan c ~prefix:"w:"
    |> List.filter (fun (k, _) -> contains_sub k ":ol:")
    |> List.length
  in
  let ol_expected =
    List.fold_left (fun acc (_, row) -> acc + Value.to_int (Value.nth row 1))
      0 orders
  in
  Alcotest.(check int) "orderline rows match ol_cnt" ol_expected ol_count;
  (* Stock: order_cnt total equals total order lines. *)
  let stock_order_cnt =
    aloha_scan c ~prefix:"w:"
    |> List.filter (fun (k, _) -> contains_sub k ":stock:")
    |> List.fold_left (fun acc (_, row) -> acc + Value.to_int (Value.nth row 2)) 0
  in
  Alcotest.(check int) "stock order_cnt = order lines" ol_expected
    stock_order_cnt

let test_aloha_tpcc_payment_invariants () =
  let c, _, _, committed_pay, pay_total =
    run_aloha_tpcc ~payments:100 ~neworders:0
  in
  Alcotest.(check int) "payments all commit" 100 committed_pay;
  let wytd_sum =
    aloha_scan c ~prefix:"w:"
    |> List.filter (fun (k, _) -> contains_sub k ":wytd")
    |> List.fold_left (fun acc (_, v) -> acc + Value.to_int v) 0
  in
  Alcotest.(check int) "sum w_ytd = sum of payments" pay_total wytd_sum;
  let dytd_sum =
    aloha_scan c ~prefix:"w:"
    |> List.filter (fun (k, _) -> contains_sub k ":dytd:")
    |> List.fold_left (fun acc (_, v) -> acc + Value.to_int v) 0
  in
  Alcotest.(check int) "sum d_ytd = sum of payments" pay_total dytd_sum;
  (* Customer balances: sum of balances = -pay_total; payment counts = 100. *)
  let custs =
    aloha_scan c ~prefix:"w:"
    |> List.filter (fun (k, _) -> contains_sub k ":cust:")
  in
  let bal = List.fold_left (fun a (_, r) -> a + Value.to_int (Value.nth r 0)) 0 custs in
  let cnt = List.fold_left (fun a (_, r) -> a + Value.to_int (Value.nth r 2)) 0 custs in
  Alcotest.(check int) "balances sum" (-pay_total) bal;
  Alcotest.(check int) "payment counts" 100 cnt

(* ---- Calvin TPC-C --------------------------------------------------------- *)

let test_calvin_tpcc_neworder_invariants () =
  let c = Calvin.Engine.create (Kernel.Params.make ~n_servers:n ()) in
  Tpcc.Neworder.register small_tpcc_cfg ~register:(Calvin.Engine.register c);
  Tpcc.Neworder.load small_tpcc_cfg ~n_servers:n ~put:(Calvin.Engine.load c);
  Calvin.Engine.start c;
  let neworder = Tpcc.Neworder.generator small_tpcc_cfg ~n_servers:n ~seed:5 in
  let committed = ref 0 in
  for i = 0 to 79 do
    Calvin.Engine.submit c ~fe:(i mod n) (neworder ~fe:(i mod n))
      ~k:(fun _ -> incr committed)
  done;
  Sim.Engine.run ~until:600_000 (Calvin.Engine.sim c);
  Alcotest.(check int) "all committed (Calvin cannot abort)" 80 !committed;
  (* District counters advanced once per order on each home district
     (the static facet pre-assigns the order ids the counter tracks). *)
  let dnoid_sum = ref 0 in
  for w = 0 to small_tpcc_cfg.Tpcc.warehouses - 1 do
    for d = 0 to small_tpcc_cfg.Tpcc.districts - 1 do
      match Calvin.Engine.read_committed c (Tpcc.dnoid_key ~w ~d) with
      | Some v -> dnoid_sum := !dnoid_sum + (Value.to_int v - 1)
      | None -> ()
    done
  done;
  Alcotest.(check int) "district counters = orders" 80 !dnoid_sum

(* ---- Scaled TPC-C ---------------------------------------------------------- *)

let test_stpcc_aloha_basic () =
  let cfg =
    { (Stpcc.default_cfg ~n_servers:n ~districts_per_host:2) with
      Stpcc.items = 40; customers = 10; invalid_item_fraction = 0.0 }
  in
  let c =
    aloha_cluster (fun c ->
        Stpcc.register ~register:(Alohadb.Engine.register c);
        Stpcc.load cfg ~put:(Alohadb.Engine.load c))
  in
  let gen = Stpcc.generator cfg ~seed:9 in
  let committed = ref 0 and outstanding = ref 0 in
  let sim = Alohadb.Cluster.sim c in
  for i = 0 to 59 do
    incr outstanding;
    Sim.Engine.schedule sim ~at:(1_000 + (i * 53)) (fun () ->
        Alohadb.Engine.submit c ~fe:(i mod n) (Stpcc.gen_neworder gen)
          ~k:(fun reply ->
            decr outstanding;
            match reply with
            | Kernel.Txn.Ok -> incr committed
            | Kernel.Txn.Aborted _ -> ()))
  done;
  Sim.Engine.run ~until:500_000 sim;
  Alcotest.(check int) "resolved" 0 !outstanding;
  Alcotest.(check int) "all committed" 60 !committed;
  let dnoid_sum =
    aloha_scan c ~prefix:"d:"
    |> List.filter (fun (k, _) -> contains_sub k ":noid")
    |> List.fold_left (fun acc (_, v) -> acc + Value.to_int v - 1) 0
  in
  Alcotest.(check int) "district counters" 60 dnoid_sum

(* ---- YCSB ------------------------------------------------------------------ *)

let test_ycsb_aloha_conservation () =
  let cfg = { Ycsb.keys_per_partition = 200; hot_keys = 4 } in
  let c =
    aloha_cluster (fun c -> Ycsb.load cfg ~n_servers:n ~put:(Alohadb.Engine.load c))
  in
  let gen = Ycsb.generator cfg ~n_partitions:n ~seed:21 in
  let sim = Alohadb.Cluster.sim c in
  let keys_written = ref 0 and outstanding = ref 0 in
  for i = 0 to 99 do
    incr outstanding;
    Sim.Engine.schedule sim ~at:(1_000 + (i * 29)) (fun () ->
        let txn = Ycsb.gen gen ~fe:(i mod n) in
        keys_written :=
          !keys_written
          + List.length (Kernel.Txn.functor_form txn).Kernel.Txn.writes;
        Alohadb.Engine.submit c ~fe:(i mod n) txn ~k:(fun _ ->
            decr outstanding))
  done;
  Sim.Engine.run ~until:400_000 sim;
  Alcotest.(check int) "resolved" 0 !outstanding;
  let total =
    aloha_scan c ~prefix:"y:"
    |> List.fold_left (fun acc (_, v) -> acc + Value.to_int v) 0
  in
  Alcotest.(check int) "sum of values = increments applied" !keys_written total

let test_ycsb_generator_shape () =
  let cfg = { Ycsb.keys_per_partition = 1000; hot_keys = 10 } in
  let gen = Ycsb.generator cfg ~n_partitions:8 ~seed:3 in
  for fe = 0 to 7 do
    let txn = Ycsb.gen gen ~fe in
    let keys =
      List.map fst (Kernel.Txn.functor_form txn).Kernel.Txn.writes
    in
    (* Exactly two partitions: the submitting one plus one other. *)
    let parts =
      List.sort_uniq compare
        (List.map
           (fun k -> int_of_string (List.nth (String.split_on_char ':' k) 1))
           keys)
    in
    Alcotest.(check int) "two partitions" 2 (List.length parts);
    Alcotest.(check bool) "includes own partition" true (List.mem fe parts);
    (* Exactly one hot key (< hot_keys) per participant partition. *)
    List.iter
      (fun p ->
        let hot =
          List.filter
            (fun k ->
              match String.split_on_char ':' k with
              | [ _; part; idx ] ->
                  int_of_string part = p && int_of_string idx < 10
              | _ -> false)
            keys
        in
        Alcotest.(check int) "one hot key per partition" 1 (List.length hot))
      parts
  done

let test_tpcc_generator_distribution () =
  let cfg = Tpcc.default_cfg ~n_servers:4 ~warehouses_per_host:2 in
  let neworder = Tpcc.Neworder.generator cfg ~n_servers:4 ~seed:7 in
  for fe = 0 to 3 do
    (* The static facet is what the deterministic engines see. *)
    let d = Kernel.Txn.static_form (neworder ~fe) in
    let writes = Kernel.Txn.write_keys d in
    (* The home district key routes to the submitting host. *)
    (match List.filter (fun k -> contains_sub k ":dnoid:") writes with
    | dnoid :: _ ->
        let w = int_of_string (List.nth (String.split_on_char ':' dnoid) 1) in
        Alcotest.(check int) "home warehouse on fe" fe (w mod 4)
    | [] -> Alcotest.fail "no district counter in write set");
    (* Distributed: some stock key lives on another host. *)
    let remote =
      List.exists
        (fun k ->
          contains_sub k ":stock:"
          && int_of_string (List.nth (String.split_on_char ':' k) 1) mod 4 <> fe)
        writes
    in
    Alcotest.(check bool) "always distributed" true remote
  done

(* ---- key builders ------------------------------------------------------ *)

let stpcc_reference (d, i, o, n) =
  [ Printf.sprintf "d:%d:noid" d; Printf.sprintf "d:%d:order:%d" d o;
    Printf.sprintf "d:%d:no:%d" d o; Printf.sprintf "d:%d:ol:%d:%d" d o n;
    Printf.sprintf "i:%d:item" i; Printf.sprintf "i:%d:stock" i ]

let stpcc_keys (d, i, o, n) =
  [ Stpcc.dnoid_key d; Stpcc.order_key ~d ~o; Stpcc.neworder_key ~d ~o;
    Stpcc.orderline_key ~d ~o ~n; Stpcc.item_key i; Stpcc.stock_key i ]

let tpcc_reference (w, d, i, o, n) =
  [ Printf.sprintf "w:%d:wytd" w; Printf.sprintf "w:%d:dtax:%d" w d;
    Printf.sprintf "w:%d:dytd:%d" w d; Printf.sprintf "w:%d:dnoid:%d" w d;
    Printf.sprintf "w:%d:cust:%d:%d" w d n; Printf.sprintf "w:%d:item:%d" w i;
    Printf.sprintf "w:%d:stock:%d" w i; Printf.sprintf "w:%d:order:%d:%d" w d o;
    Printf.sprintf "w:%d:no:%d:%d" w d o;
    Printf.sprintf "w:%d:ol:%d:%d:%d" w d o n ]

let tpcc_keys (w, d, i, o, n) =
  [ Tpcc.wytd_key w; Tpcc.dtax_key ~w ~d; Tpcc.dytd_key ~w ~d;
    Tpcc.dnoid_key ~w ~d; Tpcc.cust_key ~w ~d n; Tpcc.item_key ~w i;
    Tpcc.stock_key ~w i; Tpcc.order_key ~w ~d ~o; Tpcc.neworder_key ~w ~d ~o;
    Tpcc.orderline_key ~w ~d ~o ~n ]

(* Ids as the generators draw them, plus the ends: items inside the
   catalog, past it (invalid lines, inside and outside the key tables)
   and order ids past a million. *)
let id_gen =
  QCheck2.Gen.(
    oneof
      [ int_range 0 20; int_range 0 2_500; int_range 999_990 1_000_010;
        int_range 0 max_int ])

(* Loading covers the key tables: ids below 4 districts and 2,001 items
   read them, the rest are built. *)
let prop_stpcc_keys =
  let loaded =
    lazy
      (Stpcc.load
         (Stpcc.default_cfg ~n_servers:2 ~districts_per_host:2)
         ~put:(fun _ _ -> ()))
  in
  QCheck2.Test.make ~name:"stpcc keys = sprintf" ~count:500
    QCheck2.Gen.(quad id_gen id_gen id_gen id_gen)
    (fun ids ->
      Lazy.force loaded;
      List.equal String.equal (stpcc_keys ids) (stpcc_reference ids))

let prop_tpcc_keys =
  QCheck2.Test.make ~name:"tpcc keys = sprintf" ~count:500
    QCheck2.Gen.(tup5 id_gen id_gen id_gen id_gen id_gen)
    (fun ids -> List.equal String.equal (tpcc_keys ids) (tpcc_reference ids))

(* The builders write any int, sign and all; YCSB keys are built by one. *)
let prop_keys_any_int =
  QCheck2.Test.make ~name:"Keys.int1..int4 = sprintf" ~count:1000
    QCheck2.Gen.(quad int int int (oneofl [ min_int; max_int; -1; 0; 9; 10 ]))
    (fun (a, x, y, z) ->
      let module K = Workload.Keys in
      String.equal (K.int1 "p" a ":s") (Printf.sprintf "p%d:s" a)
      && String.equal (Ycsb.key ~partition:a x)
           (Printf.sprintf "y:%d:%d" a x)
      && String.equal (Ycsb.key ~partition:z y)
           (Printf.sprintf "y:%d:%d" z y)
      && String.equal (K.int2 "" a "" x) (Printf.sprintf "%d%d" a x)
      && String.equal (K.int3 "a:" a ":m:" x y)
           (Printf.sprintf "a:%d:m:%d:%d" a x y)
      && String.equal (K.int4 "w:" a ":ol:" x y z)
           (Printf.sprintf "w:%d:ol:%d:%d:%d" a x y z))

(* Handlers build keys on worker domains under --runtime real: four
   domains build keys at once, two of them growing a table while the
   others read it, and every string matches the reference. *)
let test_keys_four_domains () =
  let table = Workload.Keys.table (fun i -> Workload.Keys.int1 "t:" i ":x") in
  let ok =
    Array.init 4 (fun dom ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for i = 0 to 3_000 do
              if dom < 2 && i mod 50 = 0 then
                Workload.Keys.cover table (i + 100);
              let id = (i * 7) + dom in
              let ids = (id mod 80, id, id + 1_000_000, i mod 15) in
              ok :=
                !ok
                && String.equal (Workload.Keys.get table i)
                     (Printf.sprintf "t:%d:x" i)
                && List.equal String.equal (stpcc_keys ids)
                     (stpcc_reference ids)
                && List.equal String.equal
                     (tpcc_keys (dom, id mod 10, id, id + 1_000_000, i mod 15))
                     (tpcc_reference
                        (dom, id mod 10, id, id + 1_000_000, i mod 15))
            done;
            !ok))
  in
  Array.iteri
    (fun dom d ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d" dom)
        true (Domain.join d))
    ok

let suite =
  [ Alcotest.test_case "aloha tpcc neworder invariants" `Quick
      test_aloha_tpcc_neworder_invariants;
    Alcotest.test_case "aloha tpcc payment invariants" `Quick
      test_aloha_tpcc_payment_invariants;
    Alcotest.test_case "calvin tpcc neworder invariants" `Quick
      test_calvin_tpcc_neworder_invariants;
    Alcotest.test_case "stpcc aloha basic" `Quick test_stpcc_aloha_basic;
    Alcotest.test_case "ycsb conservation" `Quick test_ycsb_aloha_conservation;
    Alcotest.test_case "ycsb generator shape" `Quick test_ycsb_generator_shape;
    Alcotest.test_case "tpcc generator distribution" `Quick
      test_tpcc_generator_distribution;
    QCheck_alcotest.to_alcotest prop_stpcc_keys;
    QCheck_alcotest.to_alcotest prop_tpcc_keys;
    QCheck_alcotest.to_alcotest prop_keys_any_int;
    Alcotest.test_case "keys from four domains" `Quick test_keys_four_domains ]
