module Value = Functor_cc.Value
module Result = Kernel.Result

type scale = {
  label : string;
  warmup_us : int;
  measure_us : int;
  aloha_clients : int;
  calvin_clients : int;
  fig6_fractions : float list;
  fig7_xs : int list;
  fig8_servers : int list;
  fig9_cis : float list;
  fig11_epochs_ms : int list;
}

let quick =
  { label = "quick";
    warmup_us = 60_000;
    measure_us = 60_000;
    aloha_clients = 1_500;
    calvin_clients = 300;
    fig6_fractions = [ 0.25; 0.75 ];
    fig7_xs = [ 1; 10 ];
    fig8_servers = [ 2; 8 ];
    fig9_cis = [ 1e-4; 0.01; 0.1 ];
    fig11_epochs_ms = [ 20; 100; 200 ] }

let full =
  { label = "full";
    warmup_us = 75_000;
    measure_us = 100_000;
    aloha_clients = 4_000;
    calvin_clients = 600;
    fig6_fractions = [ 0.25; 0.5; 0.75; 0.9 ];
    fig7_xs = [ 1; 2; 3; 5; 7; 10 ];
    fig8_servers = [ 1; 2; 5; 10; 15; 20 ];
    fig9_cis = [ 1e-4; 3e-4; 1e-3; 1.7e-3; 3e-3; 0.01; 0.03; 0.1 ];
    fig11_epochs_ms = [ 20; 50; 100; 150; 200 ] }

(* ALOHA sustains far more closed-loop clients per FE than the
   lock-based engines before queueing dominates. *)
let clients_for scale engine =
  if Setup.engine_name engine = "aloha" then scale.aloha_clients
  else scale.calvin_clients

let aloha = Kernel.Intf.Pack (module Alohadb.Engine)
let calvin = Kernel.Intf.Pack (module Calvin.Engine)
let twopl = Kernel.Intf.Pack (module Twopl.Engine)

let row fig cols = Printf.printf "[%s] %s\n%!" fig (String.concat "  " cols)

let fmt_tps tps = Printf.sprintf "tps=%-9.0f" tps

let fmt_lat r =
  Printf.sprintf "lat_ms=%-7.2f p99_ms=%-7.2f"
    (r.Result.lat_mean_us /. 1000.0)
    (float_of_int r.Result.lat_p99_us /. 1000.0)

(* Structured row helpers: print the human-readable line and keep the
   same point as a macro record.  Labels are trimmed: series and point
   strings carry the console's column padding. *)

let record_point fig ~series ~point metrics =
  Report.record
    { Report.suite = "macro";
      labels =
        [ ("fig", fig); ("series", String.trim series);
          ("point", String.trim point) ];
      metrics;
      extra = [] }

let tps r = ("tps", (r.Result.throughput_tps, "txn/sim_s"))

let lat r =
  [ ("lat_mean_ms", (r.Result.lat_mean_us /. 1000.0, "sim_ms"));
    ("lat_p99_ms", (float_of_int r.Result.lat_p99_us /. 1000.0, "sim_ms")) ]

let row_tps_lat fig ~series ~point ?(extra = []) r =
  record_point fig ~series ~point (tps r :: lat r);
  row fig ([ series; point; fmt_tps r.Result.throughput_tps; fmt_lat r ] @ extra)

let row_tps fig ~series ~point ?(extra = []) r =
  record_point fig ~series ~point [ tps r ];
  row fig ([ series; point; fmt_tps r.Result.throughput_tps ] @ extra)

let row_lat fig ~series ~point r =
  record_point fig ~series ~point (lat r);
  row fig [ series; point; fmt_lat r ]

(* ---- Table I ----------------------------------------------------------- *)

let table1 () =
  row "table1" [ "f-type"; "|"; "f-argument" ];
  List.iter
    (fun (ftype, farg) -> row "table1" [ Printf.sprintf "%-14s" ftype; "|"; farg ])
    Functor_cc.Ftype.table_i;
  row "table1"
    [ "engines behind Kernel.Run:";
      String.concat ", " (List.map fst Setup.engines) ];
  row "table1"
    [ "registered user handlers in the bundled workloads:";
      "occ_validate, tpcc_neworder, tpcc_stock, tpcc_payment_cust,";
      "tpcc_orderline, stpcc_neworder, stpcc_stock, stpcc_orderline";
      "(Calvin and 2PL run them in Calvin.Deployment.apply)" ]

(* ---- workload points ---------------------------------------------------- *)

type workload =
  | TPCC of { per_host : int; kind : [ `NewOrder | `Payment ] }
  | STPCC of { per_host : int }
  | YCSB of { ci : float }

let run_point ?epoch_us ~engine ~n ~workload ~arrival scale =
  let built =
    match workload with
    | TPCC { per_host; kind } ->
        Setup.tpcc ~engine ~n ~warehouses_per_host:per_host ~kind ?epoch_us ()
    | STPCC { per_host } ->
        Setup.stpcc ~engine ~n ~districts_per_host:per_host ?epoch_us ()
    | YCSB { ci } -> Setup.ycsb ~engine ~n ~ci ?epoch_us ()
  in
  Setup.run built ~arrival ~warmup_us:scale.warmup_us
    ~measure_us:scale.measure_us ()

let peak ~engine ~n ~workload scale =
  run_point ~engine ~n ~workload
    ~arrival:
      (Kernel.Arrivals.Closed { clients_per_fe = clients_for scale engine })
    scale

(* ---- Figure 6: throughput vs latency ------------------------------------ *)

let fig6 scale =
  let n = 8 in
  let configs =
    [ ("Aloha-1W", aloha, TPCC { per_host = 1; kind = `NewOrder });
      ("Aloha-10W", aloha, TPCC { per_host = 10; kind = `NewOrder });
      ("Aloha-1D", aloha, STPCC { per_host = 1 });
      ("Aloha-10D", aloha, STPCC { per_host = 10 });
      ("Calvin-1W", calvin, TPCC { per_host = 1; kind = `NewOrder });
      ("Calvin-10W", calvin, TPCC { per_host = 10; kind = `NewOrder });
      ("Calvin-1D", calvin, STPCC { per_host = 1 });
      ("Calvin-10D", calvin, STPCC { per_host = 10 }) ]
  in
  row "fig6" [ "series"; "point"; "throughput"; "latency" ];
  List.iter
    (fun (name, engine, workload) ->
      let peak_r = peak ~engine ~n ~workload scale in
      row_tps_lat "fig6" ~series:name ~point:"peak(closed)" peak_r;
      List.iter
        (fun f ->
          let rate = peak_r.Result.throughput_tps *. f /. float_of_int n in
          if rate >= 1.0 then begin
            let arrival = Kernel.Arrivals.Open_poisson { rate_per_fe = rate } in
            let r = run_point ~engine ~n ~workload ~arrival scale in
            row_tps_lat "fig6" ~series:name
              ~point:(Printf.sprintf "open(%.2fx)" f)
              r
          end)
        scale.fig6_fractions)
    configs

(* ---- Figure 7: throughput vs warehouses/districts per host ------------- *)

let fig7 scale =
  let n = 8 in
  row "fig7" [ "series"; "per-host"; "throughput" ];
  let series =
    [ ("Aloha-STPCC-NewOrder", aloha, fun x -> STPCC { per_host = x });
      ("Aloha-TPCC-NewOrder", aloha,
       fun x -> TPCC { per_host = x; kind = `NewOrder });
      ("Aloha-TPCC-Payment", aloha,
       fun x -> TPCC { per_host = x; kind = `Payment });
      ("Calvin-STPCC-NewOrder", calvin, fun x -> STPCC { per_host = x });
      ("Calvin-TPCC-NewOrder", calvin,
       fun x -> TPCC { per_host = x; kind = `NewOrder });
      ("Calvin-TPCC-Payment", calvin,
       fun x -> TPCC { per_host = x; kind = `Payment }) ]
  in
  List.iter
    (fun (name, engine, mk) ->
      List.iter
        (fun x ->
          let r = peak ~engine ~n ~workload:(mk x) scale in
          row_tps "fig7" ~series:name ~point:(Printf.sprintf "x=%-2d" x) r)
        scale.fig7_xs)
    series

(* ---- Figure 8: scale-out ------------------------------------------------- *)

let fig8 scale =
  row "fig8" [ "series"; "servers"; "throughput" ];
  let configs =
    [ ("Aloha-1D", aloha, STPCC { per_host = 1 });
      ("Aloha-10D", aloha, STPCC { per_host = 10 });
      ("Aloha-1W", aloha, TPCC { per_host = 1; kind = `NewOrder });
      ("Aloha-10W", aloha, TPCC { per_host = 10; kind = `NewOrder });
      ("Calvin-1D", calvin, STPCC { per_host = 1 });
      ("Calvin-10D", calvin, STPCC { per_host = 10 });
      ("Calvin-1W", calvin, TPCC { per_host = 1; kind = `NewOrder });
      ("Calvin-10W", calvin, TPCC { per_host = 10; kind = `NewOrder }) ]
  in
  List.iter
    (fun (name, engine, workload) ->
      List.iter
        (fun n ->
          (* TPC-C distributed transactions need a second server. *)
          let r = peak ~engine ~n ~workload scale in
          row_tps "fig8" ~series:name ~point:(Printf.sprintf "n=%-2d" n) r)
        scale.fig8_servers)
    configs

(* ---- Figure 9: contention ----------------------------------------------- *)

let fig9 scale =
  let n = 8 in
  row "fig9" [ "system"; "ci"; "throughput" ];
  (* All three engines, including the conventional 2PL/2PC baseline the
     introduction argues against. *)
  List.iter
    (fun (name, engine) ->
      List.iter
        (fun ci ->
          let r = peak ~engine ~n ~workload:(YCSB { ci }) scale in
          row_tps "fig9"
            ~series:(Printf.sprintf "%-6s" name)
            ~point:(Printf.sprintf "ci=%-7g" ci)
            r)
        scale.fig9_cis)
    [ ("ALOHA", aloha); ("Calvin", calvin); ("2PL", twopl) ]

(* ---- Figure 10: latency breakdown --------------------------------------- *)

let print_stages fig name r =
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 r.Result.stages in
  let total = if total <= 0.0 then 1.0 else total in
  List.iter
    (fun (stage, (st : Result.stage_stat)) ->
      row fig
        [ name; Printf.sprintf "%-20s" stage;
          Printf.sprintf "%5.1f%%"
            (100.0 *. st.Result.mean_us /. total);
          Printf.sprintf "(%.2f ms)" (st.mean_us /. 1000.0);
          Printf.sprintf "p99 %.2f ms" (float_of_int st.p99_us /. 1000.0);
          Printf.sprintf "p999 %.2f ms" (float_of_int st.p999_us /. 1000.0) ])
    r.Result.stage_stats

let fig10 scale =
  let n = 8 in
  row "fig10" [ "system/ci"; "stage"; "share"; "mean"; "p99"; "p999" ];
  List.iter
    (fun ci ->
      (* Light load: ~5 % of a saturated server. *)
      let r =
        run_point ~engine:aloha ~n ~workload:(YCSB { ci })
          ~arrival:(Kernel.Arrivals.Open_poisson { rate_per_fe = 5_000.0 })
          scale
      in
      print_stages "fig10" (Printf.sprintf "ALOHA ci=%g" ci) r)
    [ 1e-4; 0.1 ];
  List.iter
    (fun ci ->
      let rate = if ci >= 0.1 then 150.0 else 500.0 in
      let r =
        run_point ~engine:calvin ~n ~workload:(YCSB { ci })
          ~arrival:(Kernel.Arrivals.Open_poisson { rate_per_fe = rate })
          scale
      in
      print_stages "fig10" (Printf.sprintf "Calvin ci=%g" ci) r)
    [ 1e-4; 0.1 ]

(* ---- Figure 11: latency vs epoch duration -------------------------------- *)

let fig11 scale =
  let n = 8 in
  row "fig11" [ "system"; "epoch_ms"; "latency" ];
  List.iter
    (fun ms ->
      let epoch_us = ms * 1000 in
      let scale' =
        (* Windows must span several epochs even for 200 ms epochs. *)
        { scale with
          warmup_us = max scale.warmup_us (3 * epoch_us);
          measure_us = max scale.measure_us (4 * epoch_us) }
      in
      let r =
        run_point ~engine:aloha ~n ~epoch_us ~workload:(YCSB { ci = 1e-3 })
          ~arrival:(Kernel.Arrivals.Open_poisson { rate_per_fe = 2_000.0 })
          scale'
      in
      row_lat "fig11" ~series:"ALOHA" ~point:(Printf.sprintf "%-3d" ms) r)
    scale.fig11_epochs_ms;
  List.iter
    (fun ms ->
      let epoch_us = ms * 1000 in
      let scale' =
        { scale with
          warmup_us = max scale.warmup_us (3 * epoch_us);
          measure_us = max scale.measure_us (4 * epoch_us) }
      in
      (* The open-source Calvin generates most transactions at the start
         of each epoch (§V-C2), reproduced by burst arrivals. *)
      let r =
        run_point ~engine:calvin ~n ~epoch_us ~workload:(YCSB { ci = 1e-3 })
          ~arrival:
            (Kernel.Arrivals.Open_burst
               { rate_per_fe = 500.0; period_us = epoch_us })
          scale'
      in
      row_lat "fig11" ~series:"Calvin" ~point:(Printf.sprintf "%-3d" ms) r)
    scale.fig11_epochs_ms

(* ---- Ablation: straggler optimisation (§III-C) --------------------------- *)

(* The ablations construct ALOHA clusters natively (custom config, fault
   injection) — Alohadb.Engine's transparent cluster type lets them still
   run through the generic kernel loop. *)

let ablation_straggler scale =
  row "ablation-straggler"
    [ "straggler_opt"; "throughput"; "latency"; "noauth_starts" ];
  List.iter
    (fun opt ->
      let config = { Alohadb.Config.default with straggler_opt = opt } in
      let options =
        { Alohadb.Cluster.default_options with n_servers = 8; config }
      in
      let c = Alohadb.Cluster.create options in
      let cfg =
        Workload.Ycsb.cfg_of_contention_index ~keys_per_partition:50_000 1e-3
      in
      Workload.Ycsb.load cfg ~n_servers:8
        ~put:(fun key v -> Alohadb.Cluster.load c ~key v);
      Alohadb.Cluster.start c;
      (* Straggler injection (§III-C Figure 3): server 0 holds one
         in-flight transaction 12 ms past each authorization's end, so
         every epoch switch stalls.  With the optimisation the other FEs
         keep starting transactions without authorization; without it the
         whole cluster idles through the stall. *)
      let sim = Alohadb.Cluster.sim c in
      let straggler = Alohadb.Server.participant (Alohadb.Cluster.server c 0) in
      let last_held = ref 0 in
      Epoch.Participant.on_state_change straggler (fun () ->
          match Epoch.Participant.window straggler with
          | Some w
            when w.Cores.Auth.authorized
                 && w.Cores.Auth.epoch > !last_held ->
              let epoch = w.Cores.Auth.epoch in
              last_held := epoch;
              Epoch.Participant.txn_started straggler ~epoch;
              let hold =
                (w.Cores.Auth.hi - w.Cores.Auth.lo) + 12_000
              in
              Sim.Engine.after sim hold (fun () ->
                  Epoch.Participant.txn_finished straggler ~epoch)
          | Some _ | None -> ());
      let gen = Workload.Ycsb.generator cfg ~n_partitions:8 ~seed:17 in
      (* Open-loop load at ~80 % of capacity.  Without the optimisation,
         every arrival during a stall is held and must be absorbed inside
         the authorized window — an effective overload that builds an
         unbounded backlog; with unauthorized starts the load spreads over
         the whole cycle and the system keeps up.  Windows span ~10 switch
         cycles so the close-burst quantisation averages out. *)
      let r =
        Kernel.Run.run
          (module Alohadb.Engine)
          ~cluster:c
          ~gen:(fun ~fe -> Workload.Ycsb.gen gen ~fe)
          ~arrival:(Kernel.Arrivals.Open_poisson { rate_per_fe = 110_000.0 })
          ~warmup_us:150_000 ~measure_us:370_000 ()
      in
      ignore scale;
      let m = Alohadb.Cluster.metrics c in
      row "ablation-straggler"
        [ (if opt then "on " else "off"); fmt_tps r.Result.throughput_tps;
          fmt_lat r;
          Printf.sprintf "noauth_starts=%d"
            (Sim.Metrics.get m "aloha.noauth_starts") ])
    [ true; false ]

(* ---- Ablation: recipient-set pushes (§IV-B) ------------------------------ *)

(* Cross-partition transfer: the destination account's functor reads the
   source account, so computing the source functor can proactively push
   its value to the destination's partition. *)
let transfer_handler (ctx : Functor_cc.Registry.ctx) =
  let delta = Value.to_int (Functor_cc.Registry.arg ctx 0) in
  let own =
    match Functor_cc.Registry.read ctx ctx.Functor_cc.Registry.key with
    | Some v -> Value.to_int v
    | None -> 0
  in
  Functor_cc.Registry.Commit (Value.int (own + delta))

let ablation_push scale =
  row "ablation-push" [ "push_opt"; "throughput"; "latency"; "remote_reads"; "push_hits" ];
  List.iter
    (fun opt ->
      let config = { Alohadb.Config.default with push_opt = opt } in
      let registry = Functor_cc.Registry.with_builtins () in
      Functor_cc.Registry.register registry "xfer" transfer_handler;
      let options =
        { Alohadb.Cluster.default_options with n_servers = 8; config }
      in
      let c = Alohadb.Cluster.create ~registry options in
      let accounts_per_part = 2_000 in
      let key p i = Printf.sprintf "a:%d:%d" p i in
      for p = 0 to 7 do
        for i = 0 to accounts_per_part - 1 do
          Alohadb.Cluster.load c ~key:(key p i) (Value.int 1_000)
        done
      done;
      Alohadb.Cluster.start c;
      let rng = Sim.Rng.create 23 in
      let gen ~fe =
        let p2 =
          let p = Sim.Rng.int rng 7 in
          if p >= fe then p + 1 else p
        in
        let src = key fe (Sim.Rng.int rng accounts_per_part) in
        let dst = key p2 (Sim.Rng.int rng accounts_per_part) in
        Kernel.Txn.make
          [ (src,
             Kernel.Txn.Call
               { handler = "xfer"; read_set = [ src ];
                 args = [ Value.int (-10) ] });
            (dst,
             Kernel.Txn.Call
               { handler = "xfer"; read_set = [ src; dst ];
                 args = [ Value.int 10 ] }) ]
      in
      let r =
        Kernel.Run.run
          (module Alohadb.Engine)
          ~cluster:c ~gen
          ~arrival:
            (Kernel.Arrivals.Closed { clients_per_fe = scale.aloha_clients })
          ~warmup_us:scale.warmup_us ~measure_us:scale.measure_us ()
      in
      let m = Alohadb.Cluster.metrics c in
      row "ablation-push"
        [ (if opt then "on " else "off"); fmt_tps r.Result.throughput_tps;
          fmt_lat r;
          Printf.sprintf "remote_reads=%d" (Sim.Metrics.get m "fcc.remote_reads");
          Printf.sprintf "push_hits=%d" (Sim.Metrics.get m "fcc.push_hits") ])
    [ true; false ]

(* ---- Ablation: determinate vs optimistic dependent txns (§IV-E) ---------- *)

let withdraw_handler (ctx : Functor_cc.Registry.ctx) =
  let amount = Value.to_int (Functor_cc.Registry.arg ctx 0) in
  let receipt = Value.to_str (Functor_cc.Registry.arg ctx 1) in
  match Functor_cc.Registry.read ctx ctx.Functor_cc.Registry.key with
  | None -> Functor_cc.Registry.Abort
  | Some v ->
      let balance = Value.to_int v in
      if balance >= amount then
        Functor_cc.Registry.Commit_det
          ( Value.int (balance - amount),
            [ (receipt, Functor_cc.Registry.Dep_put (Value.int amount)) ] )
      else
        Functor_cc.Registry.Commit_det
          (Value.int balance, [ (receipt, Functor_cc.Registry.Dep_skip) ])

let ablation_dependent scale =
  row "ablation-dependent" [ "method"; "throughput"; "aborted"; "latency" ];
  let hot_accounts = 16 in
  let n = 8 in
  let akey i = Printf.sprintf "b:%d:acct" i in
  let mk_cluster () =
    let registry = Functor_cc.Registry.with_builtins () in
    Functor_cc.Registry.register registry "withdraw" withdraw_handler;
    Functor_cc.Optimistic.register registry;
    let options =
      { Alohadb.Cluster.default_options with n_servers = n }
    in
    let c = Alohadb.Cluster.create ~registry options in
    for i = 0 to hot_accounts - 1 do
      Alohadb.Cluster.load c ~key:(akey i) (Value.int 1_000_000_000)
    done;
    Alohadb.Cluster.start c;
    c
  in
  (* Determinate method: a Det functor on the account names the receipt
     key as a declared dependent. *)
  let det () =
    let c = mk_cluster () in
    let rng = Sim.Rng.create 29 in
    let uid = ref 0 in
    let gen ~fe:_ =
      incr uid;
      let acct = akey (Sim.Rng.int rng hot_accounts) in
      let receipt = Printf.sprintf "r:%d:%d" (Sim.Rng.int rng n) !uid in
      Kernel.Txn.make
        [ (acct,
           Kernel.Txn.Det
             { handler = "withdraw"; read_set = [ acct ];
               args = [ Value.int 1; Value.str receipt ];
               dependents = [ receipt ] }) ]
    in
    let r =
      Kernel.Run.run
        (module Alohadb.Engine)
        ~cluster:c ~gen
        ~arrival:
          (Kernel.Arrivals.Closed
             { clients_per_fe = scale.aloha_clients / 2 })
        ~warmup_us:scale.warmup_us ~measure_us:scale.measure_us ()
    in
    row "ablation-dependent"
      [ "determinate"; fmt_tps r.Result.throughput_tps;
        Printf.sprintf "aborted=%d" (Result.abort r "compute");
        fmt_lat r ]
  in
  (* Optimistic method: read the balance from a snapshot, then install a
     validating functor that aborts if the balance changed (Hyder-style
     backward validation).  Needs a two-step client (read then write), so
     it drives Cluster.submit directly instead of the kernel loop. *)
  let opt () =
    let c = mk_cluster () in
    let uid = ref 0 in
    let sim = Alohadb.Cluster.sim c in
    let committed = ref 0 and aborted = ref 0 in
    let outstanding = ref 0 in
    let rng2 = Sim.Rng.create 31 in
    let rec client fe =
      incr outstanding;
      let acct = akey (Sim.Rng.int rng2 hot_accounts) in
      (* Step 1: snapshot read. *)
      Alohadb.Cluster.submit c ~fe (Alohadb.Txn.Read_only { keys = [ acct ] })
        (function
          | Alohadb.Txn.Values [ (_, Some v) ] ->
              let balance = Value.to_int v in
              if balance < 1 then decr outstanding
              else begin
                (* Step 2: validating write of the decremented balance. *)
                let snapshot = [ (acct, Some (Value.int balance)) ] in
                incr uid;
                Alohadb.Cluster.submit c ~fe
                  (Alohadb.Txn.read_write
                     [ (acct,
                        Alohadb.Txn.Call
                          { handler = Functor_cc.Optimistic.handler_name;
                            read_set = [ acct ];
                            args =
                              [ Functor_cc.Optimistic.encode_snapshot snapshot;
                                Value.int (balance - 1) ] }) ])
                  (fun result ->
                    (match result with
                    | Alohadb.Txn.Committed _ -> incr committed
                    | Alohadb.Txn.Aborted _ -> incr aborted
                    | Alohadb.Txn.Values _ -> ());
                    decr outstanding;
                    client fe)
              end
          | _ -> decr outstanding)
    in
    for fe = 0 to n - 1 do
      for _ = 1 to 64 do
        client fe
      done
    done;
    Sim.Engine.run ~until:(Sim.Engine.now sim + scale.warmup_us) sim;
    committed := 0;
    aborted := 0;
    Sim.Engine.run ~until:(Sim.Engine.now sim + scale.measure_us) sim;
    let tps =
      float_of_int !committed *. 1e6 /. float_of_int scale.measure_us
    in
    row "ablation-dependent"
      [ "optimistic "; fmt_tps tps;
        Printf.sprintf "aborted=%d (%.0f%%)" !aborted
          (100.0 *. float_of_int !aborted
           /. float_of_int (max 1 (!aborted + !committed)));
        "lat_ms=n/a" ]
  in
  det ();
  opt ()

(* ---- Extension: conventional 2PL/2PC on the Fig. 9 sweep ---------------- *)

let ext_conventional scale =
  let n = 8 in
  row "ext-conventional" [ "system"; "ci"; "throughput"; "diagnostics" ];
  List.iter
    (fun ci ->
      List.iter
        (fun (name, engine) ->
          let r = peak ~engine ~n ~workload:(YCSB { ci }) scale in
          let diagnostics =
            match r.Result.counters with
            | [] -> ""
            | counters ->
                String.concat " "
                  (List.map
                     (fun (label, v) -> Printf.sprintf "%s=%d" label v)
                     (counters
                      @ List.filter (fun (_, v) -> v > 0) r.Result.aborts))
          in
          row_tps "ext-conventional"
            ~series:(Printf.sprintf "%-6s" name)
            ~point:(Printf.sprintf "ci=%-7g" ci)
            ~extra:[ diagnostics ] r)
        [ ("ALOHA", aloha); ("Calvin", calvin); ("2PL", twopl) ])
    scale.fig9_cis

let figures =
  [ ("table1", fun _ -> table1 ());
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("ablation-straggler", ablation_straggler);
    ("ablation-push", ablation_push);
    ("ablation-dependent", ablation_dependent);
    ("ext-conventional", ext_conventional) ]

let all scale =
  Printf.printf "== scale profile: %s ==\n%!" scale.label;
  List.iter (fun (_, run) -> run scale) figures

let targets = figures @ [ ("all", all) ]
