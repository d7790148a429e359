(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§V) plus the DESIGN.md ablations, and provides a Bechamel
   micro-benchmark suite for the core primitives.

   Usage:
     dune exec bench/main.exe                -- all figures, quick scale
     dune exec bench/main.exe -- --full      -- all figures, paper scale
     dune exec bench/main.exe -- fig9        -- one figure
     dune exec bench/main.exe -- micro       -- Bechamel micro suite
     dune exec bench/main.exe -- availability -- committed-work-over-time
                                                under a fixed crash schedule
                                                at k = 1/2/3
     dune exec bench/main.exe -- fastpath    -- counter-heavy latency with
                                                the coordination-free lane
                                                off vs on

   Every run writes the measurement records it made (figure points, micro
   ns/op, availability and fast-lane series, per-target wall time) to
   BENCH.jsonl in the cwd; see Harness.Report. *)

let micro () =
  let open Bechamel in
  let chain_insert =
    Test.make ~name:"mvstore.chain insert+find (256 versions)"
      (Staged.stage (fun () ->
           let c : int Mvstore.Chain.t = Mvstore.Chain.create () in
           for i = 1 to 256 do
             ignore (Mvstore.Chain.insert c ~version:i i)
           done;
           ignore (Mvstore.Chain.find_le c ~version:128)))
  in
  (* The two key indexes on the install path: an engine's key -> chain
     table, and the process-wide intern table, each probed in a shuffled
     order over keys that are all present.  Their keys stay live
     (interned keys are never freed) and a bigger heap slows every later
     test, so these two build their data when their turn comes and run
     last. *)
  let shuffled n =
    let a = Array.init n Fun.id and rng = Sim.Rng.create 5 in
    for i = n - 1 downto 1 do
      let j = Sim.Rng.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  in
  let table_chain () =
    let n = 50_000 in
    let keys =
      Array.init n (fun i -> Mvstore.Key.intern (Printf.sprintf "micro:t:%d" i))
    in
    let t : int Mvstore.Table.t = Mvstore.Table.create () in
    Array.iter (fun key -> ignore (Mvstore.Table.chain_of t key)) keys;
    let keys = Array.map (fun i -> keys.(i)) (shuffled n) in
    let i = ref 0 in
    Test.make ~name:"mvstore.table chain (50k keys)"
      (Staged.stage (fun () ->
           i := (!i + 1) mod n;
           ignore (Sys.opaque_identity (Mvstore.Table.chain t keys.(!i)))))
  in
  let intern_hit () =
    let n = 400_000 in
    let names = Array.init n (fun i -> Printf.sprintf "micro:k:%d" i) in
    Array.iter (fun name -> ignore (Mvstore.Key.intern name)) names;
    let names = Array.map (fun i -> names.(i)) (shuffled n) in
    let i = ref 0 in
    Test.make ~name:"mvstore.key intern hit (400k names)"
      (Staged.stage (fun () ->
           i := (!i + 1) mod n;
           ignore (Sys.opaque_identity (Mvstore.Key.intern names.(!i)))))
  in
  let ts_gen =
    let e = Sim.Engine.create () in
    let clk = Clocksync.Node_clock.perfect e in
    let src = Clocksync.Ts_source.create clk ~node:1 in
    let hi = ref 1_000_000 in
    Test.make ~name:"clocksync.ts_source next"
      (Staged.stage (fun () ->
           incr hi;
           ignore (Clocksync.Ts_source.next src ~lo:0 ~hi:!hi)))
  in
  let zipf =
    let z = Sim.Zipf.create ~n:1_000_000 ~theta:0.99 in
    let rng = Sim.Rng.create 3 in
    Test.make ~name:"sim.zipf sample"
      (Staged.stage (fun () -> ignore (Sim.Zipf.sample z rng)))
  in
  let lock_manager =
    let keys =
      List.init 10 (fun i -> (Printf.sprintf "k%d" i, Calvin.Lock_manager.Write))
    in
    Test.make ~name:"calvin.lock_manager req+rel (10 keys)"
      (Staged.stage (fun () ->
           let lm = Calvin.Lock_manager.create ~on_ready:(fun _ -> ()) in
           Calvin.Lock_manager.request lm ~uid:1 ~keys;
           Calvin.Lock_manager.release lm ~uid:1))
  in
  let functor_compute =
    Test.make ~name:"functor_cc 64 local ADD computes"
      (Staged.stage (fun () ->
           let registry = Functor_cc.Registry.with_builtins () in
           let callbacks =
             { Functor_cc.Compute_engine.is_local = (fun _ -> true);
               remote_get = (fun ~key:_ ~version:_ k -> k None);
               send_push = (fun ~dst_key:_ ~version:_ ~src_key:_ _ -> ());
               send_dep_write = (fun ~key:_ ~version:_ _ -> ());
               notify_final = (fun ~key:_ ~version:_ ~pending:_ ~final:_ -> ());
               exec = (fun ~cost:_ k -> k ());
               now = (fun () -> 0) }
           in
           let e =
             Functor_cc.Compute_engine.create ~registry ~callbacks
               ~compute_cost_us:0 ~metrics:(Sim.Metrics.create ()) ()
           in
           Functor_cc.Compute_engine.load_initial e ~key:(Mvstore.Key.intern "k")
             (Functor_cc.Value.int 0);
           for v = 1 to 64 do
             ignore
               (Functor_cc.Compute_engine.install e ~key:(Mvstore.Key.intern "k") ~version:v ~lo:0
                  ~hi:max_int
                  (Functor_cc.Funct.mk_pending ~ftype:Functor_cc.Ftype.Add
                     ~farg:(Functor_cc.Funct.farg_args
                              [ Functor_cc.Value.int 1 ])
                     ~txn_id:v ~coordinator:0))
           done;
           Functor_cc.Compute_engine.compute_key e ~key:(Mvstore.Key.intern "k") ~version:64))
  in
  let rng_bench =
    let rng = Sim.Rng.create 9 in
    Test.make ~name:"sim.rng bounded int"
      (Staged.stage (fun () -> ignore (Sim.Rng.int rng 1_000_000)))
  in
  (* Tracer-overhead pair: 64 server-shaped emit sites (a lifecycle
     stage emit plus an epoch-ledger note each) with observability off
     vs attached at the 1-in-16 trace sample rate.  Off is the default
     production path — every site must cost exactly one option test, so
     this pair is the number behind the "tracing off is free" claim.
     Sys.opaque_identity keeps the compiler from folding the None
     branch away. *)
  let tracer_sites obs ledger =
    for i = 0 to 63 do
      (match obs with
      | Some ctl ->
          Obs.Ctl.emit ctl ~txn:i ~stage:Obs.Trace.Submit ~node:0 ~ts:i
            ~arg:(i lsr 4) ()
      | None -> ());
      match ledger with
      | Some l ->
          Obs.Ledger.note_assigned l ~node:0 ~epoch:(i lsr 4);
          if Obs.Ledger.awaiting_first_commit l then
            Obs.Ledger.note_commit l ~node:0 ~t_us:i ~partitions:[ 0 ]
      | None -> ()
    done
  in
  let tracer_off =
    let obs = Sys.opaque_identity (None : Obs.Ctl.t option) in
    let ledger = Sys.opaque_identity (None : Obs.Ledger.t option) in
    Test.make ~name:"obs.tracer 64 emit sites off"
      (Staged.stage (fun () -> tracer_sites obs ledger))
  in
  let tracer_on =
    let l = Obs.Ledger.create ~cfg_epoch_us:10_000 ~nodes:1 ~replicas:1 () in
    let ctl = Obs.Ctl.create ~sample:16 ~ledger:l () in
    let obs = Sys.opaque_identity (Some ctl) in
    let ledger = Sys.opaque_identity (Obs.Ctl.ledger ctl) in
    Test.make ~name:"obs.tracer 64 emit sites 1-in-16"
      (Staged.stage (fun () -> tracer_sites obs ledger))
  in
  (* One closed epoch of 64 keys x [versions] pending ADD versions (a
     commutative-heavy epoch: hot counters absorb dozens of blind ADDs
     per epoch), planned and evaluated to completion.  [exec] routes
     through the worker pool, so every dispatch job runs before any
     evaluation finalises.  With [real], the epoch is evaluated on that
     domain pool, as under [--runtime real]. *)
  let run_epoch ~versions ?real () =
    let sim = Sim.Engine.create () in
    let pool = Sim.Worker_pool.create sim ~workers:4 in
    let registry = Functor_cc.Registry.with_builtins () in
    let metrics = Sim.Metrics.create () in
    let callbacks =
      { Functor_cc.Compute_engine.is_local = (fun _ -> true);
        remote_get = (fun ~key:_ ~version:_ k -> k None);
        send_push = (fun ~dst_key:_ ~version:_ ~src_key:_ _ -> ());
        send_dep_write = (fun ~key:_ ~version:_ _ -> ());
        notify_final = (fun ~key:_ ~version:_ ~pending:_ ~final:_ -> ());
        exec = (fun ~cost k -> Sim.Worker_pool.submit pool ~cost k);
        now = (fun () -> Sim.Engine.now sim) }
    in
    let e =
      Functor_cc.Compute_engine.create ~registry ~callbacks
        ~compute_cost_us:1 ~metrics ()
    in
    let proc = Functor_cc.Processor.create () in
    let keys =
      Array.init 64 (fun i -> Mvstore.Key.intern (Printf.sprintf "bk%d" i))
    in
    Array.iter
      (fun key ->
        Functor_cc.Compute_engine.load_initial e ~key
          (Functor_cc.Value.int 0))
      keys;
    for v = 1 to versions do
      Array.iter
        (fun key ->
          ignore
            (Functor_cc.Compute_engine.install e ~key ~version:v ~lo:0
               ~hi:max_int
               (Functor_cc.Funct.mk_pending ~ftype:Functor_cc.Ftype.Add
                  ~farg:(Functor_cc.Funct.farg_args
                           [ Functor_cc.Value.int 1 ])
                  ~txn_id:v ~coordinator:0));
          Functor_cc.Processor.buffer proc ~epoch:1 ~key ~version:v)
        keys
    done;
    let planner =
      Functor_cc.Planner.create ~engine:e ~pool ?real ~dispatch_cost_us:1
        ~metrics ()
    in
    let items =
      List.concat_map snd (Functor_cc.Processor.drain proc ~upto_epoch:1)
    in
    ignore (Functor_cc.Planner.run planner ~items);
    Sim.Engine.run sim;
    assert (Functor_cc.Compute_engine.watermark e ~key:keys.(0) = versions)
  in
  let epoch_planned =
    Test.make ~name:"functor_cc epoch 64x128 planned"
      (Staged.stage (fun () -> run_epoch ~versions:128 ()))
  in
  (* The real-runtime epoch on one domain: the caller runs every task, so
     no barrier waits on a domain a shared host has descheduled. *)
  let epoch_real =
    let real = Runtime.Pool.create ~domains:1 in
    Test.make ~name:"functor_cc epoch 64x256 real, 1 domain"
      (Staged.stage (fun () -> run_epoch ~versions:256 ~real ()))
  in
  (* WAL flush+ship pair: append 64 entries, run the group-commit flush,
     and from its hook read the freshly durable range the way a
     replication primary ships it.  The log starts at [log] durable,
     already shipped entries and is rebuilt once it doubles, so both
     series amortise the same number of rebuild appends per op; with
     flush and ship costing the fresh entries only, the 1k and 32k
     series must cost about the same. *)
  let wal_flush_ship ~log =
    let e =
      Alohadb.Wal.Log_install
        { key = Mvstore.Key.intern "w"; version = 1;
          spec = Alohadb.Message.fspec_value (Functor_cc.Value.int 1);
          txn_id = 1; coordinator = 0; epoch = 1; fast = false }
    in
    let shipped = ref 0 in
    let fresh () =
      let sim = Sim.Engine.create () in
      let wal = Alohadb.Wal.create sim () in
      for _ = 1 to log do
        Alohadb.Wal.append wal e
      done;
      Sim.Engine.run sim;
      shipped := log;
      Alohadb.Wal.set_on_flush wal (fun () ->
          let upto = Alohadb.Wal.durable_count wal in
          List.iter
            (fun (_, e) ->
              ignore (Sys.opaque_identity e))
            (Alohadb.Wal.durable_range wal ~from:!shipped ~upto);
          shipped := upto);
      (sim, wal)
    in
    let state = ref (fresh ()) in
    Test.make
      ~name:
        (Printf.sprintf "alohadb.wal flush+ship 64 fresh, %dk log"
           (log / 1024))
      (Staged.stage (fun () ->
           if Alohadb.Wal.durable_count (snd !state) >= 2 * log then
             state := fresh ();
           let sim, wal = !state in
           for _ = 1 to 64 do
             Alohadb.Wal.append wal e
           done;
           Sim.Engine.run sim))
  in
  let wal_1k = wal_flush_ship ~log:1024 in
  let wal_32k = wal_flush_ship ~log:32_768 in
  let tests =
    List.map Fun.const
      [ chain_insert; ts_gen; zipf; lock_manager; functor_compute;
        epoch_planned; epoch_real; rng_bench; tracer_off; tracer_on; wal_1k; wal_32k ]
    @ [ table_chain; intern_hit ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances (test ()) in
      let analysis =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] when Float.is_finite est ->
              estimates := (name, (est, "ns")) :: !estimates;
              Printf.printf "[micro] %-44s %12.1f ns/op\n%!" name est
          | Some _ | None ->
              Printf.printf "[micro] %-44s (no estimate)\n%!" name)
        analysis)
    tests;
  Harness.Report.record
    { Harness.Report.suite = "micro"; labels = [];
      metrics = List.rev !estimates; extra = [] }

(* The latency-collapse figure: one counter-heavy workload (YCSB is 10
   blind ADD-1s per txn — every transaction is all-commutative with an
   empty read set) run twice on ALOHA, coordination-free commit lane off
   and on.  Off, a commit waits for epoch close plus the computing phase
   (~13 ms at the 10 ms epoch); on, it commits at install-ack time, a
   couple of network round trips.  Simulated time, so the numbers are
   deterministic; ci/check_bench_regression.py gates on the on-p50
   beating the off-p50. *)
let fastpath () =
  let aloha =
    match Harness.Setup.engine_of_name "aloha" with
    | Some e -> e
    | None -> assert false
  in
  let measure ~fastpath =
    let built =
      Harness.Setup.ycsb ~engine:aloha ~n:4 ~ci:0.01 ~epoch_us:10_000
        ~fastpath ~seed:7 ()
    in
    Harness.Setup.run built
      ~arrival:(Kernel.Arrivals.Closed { clients_per_fe = 4 })
      ~warmup_us:100_000 ~measure_us:1_000_000 ()
  in
  let workload =
    "ycsb ci=0.01 n=4, closed loop 4 clients/FE, 10 ADD-1 ops/txn"
  in
  List.iter
    (fun fastpath ->
      let r = measure ~fastpath in
      let fast_commits =
        match List.assoc_opt "fastpath commits" r.Kernel.Result.counters with
        | Some n -> n
        | None -> 0
      in
      let mode = if fastpath then "on" else "off" in
      Printf.printf
        "[fastpath] %-3s: %6d committed  p50 %6d us  p99 %6d us  (%d via \
         fast lane)\n%!"
        mode r.Kernel.Result.committed r.Kernel.Result.lat_p50_us
        r.Kernel.Result.lat_p99_us fast_commits;
      let count v = (float_of_int v, "count")
      and us v = (float_of_int v, "sim_us") in
      Harness.Report.record
        { Harness.Report.suite = "fastpath";
          labels = [ ("workload", workload); ("mode", mode) ];
          metrics =
            [ ("committed", count r.Kernel.Result.committed);
              ("tps", (r.Kernel.Result.throughput_tps, "txn/sim_s"));
              ("p50_us", us r.Kernel.Result.lat_p50_us);
              ("p99_us", us r.Kernel.Result.lat_p99_us);
              ("fastpath_commits", count fast_commits) ];
          extra = [] })
    [ false; true ]

(* The availability figure: one fixed schedule — a primary crashed at
   20ms and kept dark past the run horizon — replayed at replication
   degrees 1, 2 and 3.  At k = 1 the committed curve plateaus the moment
   the crash lands and the run cannot complete; at k >= 2 failover picks
   the partition up within the detection delay and the curve keeps
   climbing to completion.  The driver's own invariants stay enforced for
   the replicated runs (they must pass); the k = 1 run is reported as the
   degraded baseline, violations and all. *)
let availability () =
  let target =
    match Chaos.Driver.target_of_name "aloha" with
    | Some t -> t
    | None -> assert false
  in
  let seed = 42 in
  let schedule =
    { Chaos.Schedule.seed;
      n_servers = 3;
      events =
        [ Chaos.Schedule.Crash
            { node = 1; at_us = 20_000; restart_at_us = 2_000_000 } ] }
  in
  let schedule_label = Format.asprintf "%a" Chaos.Schedule.pp schedule in
  List.iter
    (fun replicas ->
      let r = Chaos.Driver.run_schedule target ~replicas ~schedule in
      if replicas > 1 && not (Chaos.Driver.passed r) then
        failwith
          (Printf.sprintf "availability: k=%d run violated invariants: %s"
             replicas
             (String.concat "; " r.Chaos.Driver.violations));
      let points = r.Chaos.Driver.availability in
      Printf.printf
        "[availability] k=%d: %d/%d committed by horizon (%d samples)\n%!"
        replicas r.Chaos.Driver.committed r.Chaos.Driver.submitted
        (List.length points);
      let count v = (float_of_int v, "count") in
      Harness.Report.record
        { Harness.Report.suite = "availability";
          labels =
            [ ("engine", "aloha"); ("replicas", string_of_int replicas);
              ("seed", string_of_int seed); ("schedule", schedule_label) ];
          metrics =
            [ ("submitted", count r.Chaos.Driver.submitted);
              ("completed", count r.Chaos.Driver.committed);
              ("samples", count (List.length points)) ];
          (* the committed-over-time curve, [(t_us, committed)] samples
             from the chaos driver's probe loop *)
          extra =
            [ ( "points",
                "["
                ^ String.concat ","
                    (List.map
                       (fun (t_us, committed) ->
                         Printf.sprintf "{\"t_us\":%d,\"committed\":%d}" t_us
                           committed)
                       points)
                ^ "]" ) ] })
    [ 1; 2; 3 ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale =
    if List.mem "--full" args then Harness.Experiments.full
    else Harness.Experiments.quick
  in
  let cmds =
    List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
  in
  let targets =
    List.map (fun (name, run) -> (name, fun () -> run scale))
      Harness.Experiments.targets
    @ [ ("micro", micro); ("availability", availability);
        ("fastpath", fastpath) ]
  in
  let run_target name =
    match List.assoc_opt name targets with
    | Some run ->
        run ();
        (* the bench's "all" adds the micro suite *)
        if name = "all" then micro ()
    | None ->
        Printf.eprintf "unknown target %S (expected %s)\n" name
          (String.concat ", " (List.map fst targets));
        exit 2
  in
  (* host wall time per target: the one record that is not simulated *)
  let run cmd =
    let t0 = Unix.gettimeofday () in
    run_target cmd;
    Harness.Report.record
      { Harness.Report.suite = "target";
        labels = [ ("target", cmd); ("scale", scale.Harness.Experiments.label) ];
        metrics = [ ("wall_s", (Unix.gettimeofday () -. t0, "s")) ];
        extra = [] }
  in
  (match cmds with
  | [] -> run "all"
  | cmds -> List.iter run cmds);
  let records = Harness.Report.recorded () in
  Harness.Report.write "BENCH.jsonl" records;
  Printf.printf "wrote BENCH.jsonl (%d records)\n%!" (List.length records)
