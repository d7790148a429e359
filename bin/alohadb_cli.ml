(* Command-line driver for single experiments.

   Examples:
     alohadb_cli run --system aloha --workload ycsb --ci 0.01 --servers 8
     alohadb_cli run --system twopl --workload ycsb --ci 0.001
     alohadb_cli run --system calvin --workload tpcc --per-host 1 \
       --clients 500 --measure-ms 200
     alohadb_cli figure fig9 --scale full
     alohadb_cli table1 *)

open Cmdliner

let run_cmd =
  let system =
    let doc = "System under test: aloha, calvin, or twopl." in
    Arg.(value
         & opt (enum
                  (List.map
                     (fun (name, e) -> (name, (name, e)))
                     Harness.Setup.engines))
             ("aloha", List.assoc "aloha" Harness.Setup.engines)
         & info [ "system"; "s" ] ~doc)
  in
  let workload =
    let doc = "Workload: tpcc, tpcc-payment, stpcc, or ycsb." in
    Arg.(value
         & opt (enum
                  [ ("tpcc", `Tpcc); ("tpcc-payment", `Tpcc_payment);
                    ("stpcc", `Stpcc); ("ycsb", `Ycsb) ])
             `Ycsb
         & info [ "workload"; "w" ] ~doc)
  in
  let servers =
    Arg.(value & opt int 8 & info [ "servers"; "n" ] ~doc:"Cluster size.")
  in
  let per_host =
    Arg.(value & opt int 10
         & info [ "per-host" ] ~doc:"Warehouses/districts per host (TPC-C).")
  in
  let ci =
    Arg.(value & opt float 0.01
         & info [ "ci" ] ~doc:"YCSB contention index (1/hot-keys).")
  in
  let clients =
    Arg.(value & opt int 0
         & info [ "clients" ]
             ~doc:"Closed-loop clients per frontend (0 = pick a default).")
  in
  let rate =
    Arg.(value & opt float 0.0
         & info [ "rate" ]
             ~doc:"Open-loop arrival rate per frontend in txn/s \
                   (overrides --clients when positive).")
  in
  let epoch_ms =
    Arg.(value & opt int 25
         & info [ "epoch-ms" ] ~doc:"Epoch / sequencer batch duration.")
  in
  let warmup_ms =
    Arg.(value & opt int 75 & info [ "warmup-ms" ] ~doc:"Warm-up window.")
  in
  let measure_ms =
    Arg.(value & opt int 100 & info [ "measure-ms" ] ~doc:"Measured window.")
  in
  let seed = Arg.(value & opt int 17 & info [ "seed" ] ~doc:"Workload seed.") in
  let runtime =
    let modes = Arg.enum [ ("sim", "sim"); ("real", "real") ] in
    Arg.(value & opt (some modes) None
         & info [ "runtime" ]
             ~doc:"Execution backend (ALOHA only): sim (default; \
                   single-domain simulation) or real (evaluate each \
                   epoch's planned functors on OCaml 5 domains, one task \
                   per key run).")
  in
  let domains =
    Arg.(value & opt (some int) None
         & info [ "domains" ]
             ~doc:"Evaluating domains for --runtime real, the calling \
                   domain included: N spawns N-1 (default: engine \
                   default).")
  in
  let replicas =
    Arg.(value & opt (some int) None
         & info [ "replicas"; "k" ]
             ~doc:"Replication degree per partition (ALOHA only; 1 = \
                   unreplicated, the default).  k > 1 ships WAL records \
                   to k-1 followers and survives any single backend \
                   crash by failover.")
  in
  let fastpath =
    let modes = Arg.enum [ ("on", true); ("off", false) ] in
    Arg.(value & opt (some modes) None
         & info [ "fastpath" ]
             ~doc:"Coordination-free commit lane for all-commutative \
                   transactions (ALOHA only): on commits ADD/SUBTR/MAX/MIN \
                   write sets at install time instead of waiting for epoch \
                   close + compute.  Omitted = off.")
  in
  let run (sys_name, engine) workload n per_host ci clients rate epoch_ms
      warmup_ms measure_ms seed runtime domains replicas fastpath =
    let epoch_us = epoch_ms * 1000 in
    let warmup_us = warmup_ms * 1000 in
    let measure_us = measure_ms * 1000 in
    let arrival =
      if rate > 0.0 then Harness.Arrivals.Open_poisson { rate_per_fe = rate }
      else
        (* ALOHA sustains far more closed-loop clients than the lock-based
           engines. *)
        let default = if sys_name = "aloha" then 2_000 else 500 in
        Harness.Arrivals.Closed
          { clients_per_fe = (if clients > 0 then clients else default) }
    in
    let built =
      match workload with
      | `Tpcc ->
          Harness.Setup.tpcc ~engine ~n ~warehouses_per_host:per_host
            ~kind:`NewOrder ~epoch_us ?runtime ?domains ?replicas ?fastpath
            ~seed ()
      | `Tpcc_payment ->
          Harness.Setup.tpcc ~engine ~n ~warehouses_per_host:per_host
            ~kind:`Payment ~epoch_us ?runtime ?domains ?replicas ?fastpath
            ~seed ()
      | `Stpcc ->
          Harness.Setup.stpcc ~engine ~n ~districts_per_host:per_host
            ~epoch_us ?runtime ?domains ?replicas ?fastpath ~seed ()
      | `Ycsb ->
          Harness.Setup.ycsb ~engine ~n ~ci ~epoch_us ?runtime ?domains
            ?replicas ?fastpath ~seed ()
    in
    let wall_t0 = Unix.gettimeofday () in
    let result = Harness.Setup.run built ~arrival ~warmup_us ~measure_us () in
    let wall_s = Unix.gettimeofday () -. wall_t0 in
    (* Quiesce: joins the real runtime's worker domains (no-op on sim). *)
    (let (Harness.Setup.Built ((module E), c, _)) = built in
     E.stop c);
    (match replicas with
    | Some k when k > 1 -> Format.printf "replication: k=%d@." k
    | _ -> ());
    (match fastpath with
    | Some true -> Format.printf "fastpath: on@."
    | _ -> ());
    (match runtime with
    | Some mode ->
        Format.printf "runtime: %s%s@." mode
          (match domains with
          | Some d when mode = "real" -> Printf.sprintf " (%d domains)" d
          | _ -> "")
    | None -> ());
    Format.printf "%a@." Kernel.Result.pp result;
    (* Wall-clock throughput: the first-class series under --runtime real
       (simulated tps is unchanged by construction there). *)
    Format.printf "wall clock: %.3f s (%.0f committed txn/s wall)@." wall_s
      (float_of_int result.Kernel.Result.committed /. wall_s);
    List.iter
      (fun (stage, (st : Kernel.Result.stage_stat)) ->
        Format.printf "  %-22s %8.2f ms  p99 %6.2f ms  p999 %6.2f ms@." stage
          (st.Kernel.Result.mean_us /. 1000.0)
          (float_of_int st.p99_us /. 1000.0)
          (float_of_int st.p999_us /. 1000.0))
      result.Kernel.Result.stage_stats
  in
  let doc = "Run one experiment point and print its metrics." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ system $ workload $ servers $ per_host $ ci $ clients
          $ rate $ epoch_ms $ warmup_ms $ measure_ms $ seed $ runtime
          $ domains $ replicas $ fastpath)

let figure_cmd =
  let target =
    let doc = "Figure or ablation to regenerate (fig6..fig11, table1, \
               ablation-straggler, ablation-push, ablation-dependent, all)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)
  in
  let scale =
    let doc = "Point-set scale: quick (development) or full (paper)." in
    Arg.(value
         & opt (enum
                  [ ("quick", Harness.Experiments.quick);
                    ("full", Harness.Experiments.full) ])
             Harness.Experiments.quick
         & info [ "scale" ] ~doc)
  in
  let run target scale =
    match target with
    | "table1" -> Harness.Experiments.table1 ()
    | "fig6" -> Harness.Experiments.fig6 scale
    | "fig7" -> Harness.Experiments.fig7 scale
    | "fig8" -> Harness.Experiments.fig8 scale
    | "fig9" -> Harness.Experiments.fig9 scale
    | "fig10" -> Harness.Experiments.fig10 scale
    | "fig11" -> Harness.Experiments.fig11 scale
    | "ablation-straggler" -> Harness.Experiments.ablation_straggler scale
    | "ablation-push" -> Harness.Experiments.ablation_push scale
    | "ablation-dependent" -> Harness.Experiments.ablation_dependent scale
    | "ext-conventional" -> Harness.Experiments.ext_conventional scale
    | "all" -> Harness.Experiments.all scale
    | other ->
        Format.eprintf "unknown target %s@." other;
        exit 2
  in
  let doc = "Regenerate one of the paper's figures." in
  Cmd.v (Cmd.info "figure" ~doc) Term.(const run $ target $ scale)

let table1_cmd =
  let doc = "Print Table I (supported f-types)." in
  Cmd.v (Cmd.info "table1" ~doc)
    Term.(const Harness.Experiments.table1 $ const ())

let chaos_cmd =
  let engine =
    let doc = "Engine under chaos: aloha, calvin, twopl, or all." in
    Arg.(value & opt string "all" & info [ "engine"; "e" ] ~doc)
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"First schedule seed.")
  in
  let count =
    Arg.(value & opt int 1
         & info [ "count"; "c" ]
             ~doc:"Number of consecutive seeds to run, starting at --seed.")
  in
  let servers =
    Arg.(value & opt int 3 & info [ "servers"; "n" ] ~doc:"Cluster size.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose"; "v" ] ~doc:"Print each schedule's events.")
  in
  let replicas =
    Arg.(value & opt int 1
         & info [ "replicas"; "k" ]
             ~doc:"Replication degree (ALOHA only).  k > 1 switches to \
                   the replication battery schedule: every backend \
                   crashed once per run, staggered, with failover \
                   expected to mask each loss.")
  in
  let fastpath =
    Arg.(value & flag
         & info [ "fastpath" ]
             ~doc:"Enable the coordination-free commit lane (ALOHA only). \
                   The chaos workload is all-commutative, so every \
                   transaction takes it.")
  in
  let run engine seed count servers verbose replicas fastpath =
    let names =
      if engine = "all" then List.map fst Chaos.Driver.targets else [ engine ]
    in
    let targets =
      List.map
        (fun name ->
          match Chaos.Driver.target_of_name name with
          | Some t -> (name, t)
          | None ->
              Format.eprintf "unknown engine %s@." name;
              exit 2)
        names
    in
    let failures = ref 0 in
    for s = seed to seed + count - 1 do
      let schedule =
        if replicas > 1 then
          Chaos.Schedule.generate_replicated ~seed:s ~n_servers:servers
        else Chaos.Schedule.generate ~seed:s ~n_servers:servers
      in
      if verbose then Format.printf "%a@." Chaos.Schedule.pp schedule;
      List.iter
        (fun (name, target) ->
          let r =
            Chaos.Driver.run_schedule ~replicas ~fastpath target ~schedule
          in
          let ok = Chaos.Driver.passed r in
          if not ok then incr failures;
          (* One machine-readable line per (engine, seed): the chaos-smoke
             CI job greps these out and archives the failing ones.  The
             drops object carries the categorized Net.Network.drop_stats
             so CI artifacts have full drop accounting without rerunning. *)
          let d = r.Chaos.Driver.drop_detail in
          Format.printf
            "{\"engine\":\"%s\",\"seed\":%d,\"replicas\":%d,\"fastpath\":%b,\"trace_hash\":\"%s\",\
             \"trace_events\":%d,\
             \"committed\":%d,\"submitted\":%d,\
             \"drops\":{\"injected\":%d,\"partitioned\":%d,\"crashed\":%d,\
             \"unregistered\":%d,\"total\":%d},\"ok\":%b}@."
            name s r.Chaos.Driver.replicas r.Chaos.Driver.fastpath
            r.Chaos.Driver.trace_hash
            r.Chaos.Driver.trace_events r.Chaos.Driver.committed
            r.Chaos.Driver.submitted d.Net.Network.injected
            d.Net.Network.partitioned d.Net.Network.crashed
            d.Net.Network.unregistered r.Chaos.Driver.drops ok;
          if not ok then
            List.iter
              (fun v -> Format.printf "  violation: %s@." v)
              r.Chaos.Driver.violations)
        targets
    done;
    if !failures > 0 then begin
      Format.eprintf "chaos: %d failing (engine, seed) pairs@." !failures;
      exit 1
    end
  in
  let doc =
    "Run seeded fault-injection schedules (drop/delay/duplicate/reorder, \
     partitions, backend crash+recovery, clock skew) and check the chaos \
     invariants.  A failing schedule is reproduced exactly by rerunning \
     with its seed."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ engine $ seed $ count $ servers $ verbose $ replicas
          $ fastpath)


(* ---- traced runs (trace / stats subcommands) ---------------------------- *)

(* Run one small YCSB point with lifecycle tracing enabled and hand back
   the observability handle alongside the result.  ALOHA is driven
   natively (its cluster type is transparent) so a trickle of read-only
   requests can be injected mid-measurement — the kernel client loop
   exercises only the read-write path, and without those the read_served
   stage would never appear in the trace. *)
let traced_run ~sys_name ~engine ~n ~ci ~sample ~epoch_us ~warmup_us
    ~measure_us ~seed =
  let ctl = Obs.Ctl.create ~sample () in
  let arrival =
    let clients = if sys_name = "aloha" then 400 else 100 in
    Harness.Arrivals.Closed { clients_per_fe = clients }
  in
  match sys_name with
  | "aloha" ->
      let params = Kernel.Params.make ~epoch_us ~obs:ctl ~n_servers:n () in
      let c = Alohadb.Engine.create ~seed params in
      let cfg =
        Workload.Ycsb.cfg_of_contention_index ~keys_per_partition:1_000 ci
      in
      Workload.Ycsb.Workload.register cfg
        ~register:(Alohadb.Engine.register c);
      Workload.Ycsb.Workload.load cfg ~n_servers:n
        ~put:(Alohadb.Engine.load c);
      Alohadb.Engine.start c;
      let g = Workload.Ycsb.generator cfg ~n_partitions:n ~seed in
      let gen ~fe = Workload.Ycsb.gen g ~fe in
      let sim = Alohadb.Engine.sim c in
      let step = max 1 (measure_us / 16) in
      for i = 1 to 12 do
        Sim.Engine.after sim
          (warmup_us + (i * step))
          (fun () ->
            let keys = [ Workload.Ycsb.key ~partition:(i mod n) 0 ] in
            Alohadb.Cluster.submit c ~fe:(i mod n)
              (Alohadb.Txn.Read_only { keys })
              (fun _ -> ()))
      done;
      let result =
        Kernel.Run.run
          (module Alohadb.Engine)
          ~cluster:c ~gen ~arrival ~obs:ctl ~warmup_us ~measure_us ~seed ()
      in
      (result, ctl, Some (Alohadb.Engine.drop_stats c))
  | _ ->
      let built =
        Harness.Setup.ycsb ~engine ~n ~ci ~epoch_us ~obs:ctl ~seed ()
      in
      let result =
        Harness.Setup.run built ~arrival ~obs:ctl ~warmup_us ~measure_us
          ~seed ()
      in
      (result, ctl, None)

let traced_args =
  let engine =
    let doc = "Engine to trace: aloha, calvin, or twopl." in
    Cmdliner.Arg.(
      value
      & opt (enum
               (List.map
                  (fun (name, e) -> (name, (name, e)))
                  Harness.Setup.engines))
          ("aloha", List.assoc "aloha" Harness.Setup.engines)
      & info [ "engine"; "e" ] ~doc)
  in
  let servers =
    Arg.(value & opt int 4 & info [ "servers"; "n" ] ~doc:"Cluster size.")
  in
  let ci =
    Arg.(value & opt float 0.01
         & info [ "ci" ] ~doc:"YCSB contention index (1/hot-keys).")
  in
  let sample =
    Arg.(value & opt int 1
         & info [ "sample" ]
             ~doc:"Trace 1-in-N transactions (1 = trace everything).")
  in
  let epoch_ms =
    Arg.(value & opt int 10
         & info [ "epoch-ms" ] ~doc:"Epoch / sequencer batch duration.")
  in
  let warmup_ms =
    Arg.(value & opt int 30 & info [ "warmup-ms" ] ~doc:"Warm-up window.")
  in
  let measure_ms =
    Arg.(value & opt int 60 & info [ "measure-ms" ] ~doc:"Measured window.")
  in
  let seed = Arg.(value & opt int 17 & info [ "seed" ] ~doc:"Workload seed.") in
  (engine, servers, ci, sample, epoch_ms, warmup_ms, measure_ms, seed)

let trace_cmd =
  let engine, servers, ci, sample, epoch_ms, warmup_ms, measure_ms, seed =
    traced_args
  in
  let out =
    Arg.(value & opt string "TRACE.json"
         & info [ "out"; "o" ]
             ~doc:"Output path for the Chrome trace_events JSON.")
  in
  let telemetry =
    Arg.(value & opt string ""
         & info [ "telemetry" ]
             ~doc:"Also write the run's telemetry record (one JSON line) to this path.")
  in
  let run (sys_name, engine) n ci sample epoch_ms warmup_ms measure_ms seed
      out telemetry =
    let result, ctl, drops =
      traced_run ~sys_name ~engine ~n ~ci ~sample ~epoch_us:(epoch_ms * 1000)
        ~warmup_us:(warmup_ms * 1000) ~measure_us:(measure_ms * 1000) ~seed
    in
    Obs.Export.write_chrome_trace ~path:out ~engine:sys_name
      ?ledger:(Obs.Ctl.ledger ctl)
      ~trace:(Obs.Ctl.trace ctl)
      ~gauges:(Some (Obs.Ctl.gauges ctl))
      ();
    if telemetry <> "" then
      Harness.Report.write telemetry
        [ Harness.Report.telemetry ~engine:sys_name ~workload:"ycsb" ~result
            ?drops ~ctl () ];
    let tr = Obs.Ctl.trace ctl in
    Format.printf
      "wrote %s: %d events in ring (%d emitted, %d dropped, sampling 1/%d), \
       %d committed@."
      out (Obs.Trace.length tr) (Obs.Trace.total tr) (Obs.Trace.dropped tr)
      sample result.Kernel.Result.committed
  in
  let doc =
    "Run a small traced YCSB experiment and export a Chrome trace_events      JSON file (load it in chrome://tracing or ui.perfetto.dev)."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ engine $ servers $ ci $ sample $ epoch_ms $ warmup_ms
          $ measure_ms $ seed $ out $ telemetry)

let stats_cmd =
  let engine, servers, ci, sample, epoch_ms, warmup_ms, measure_ms, seed =
    traced_args
  in
  let run (sys_name, engine) n ci sample epoch_ms warmup_ms measure_ms seed =
    let result, ctl, _ =
      traced_run ~sys_name ~engine ~n ~ci ~sample ~epoch_us:(epoch_ms * 1000)
        ~warmup_us:(warmup_ms * 1000) ~measure_us:(measure_ms * 1000) ~seed
    in
    Format.printf "%a@." Kernel.Result.pp result;
    List.iter
      (fun (stage, (st : Kernel.Result.stage_stat)) ->
        Format.printf
          "  %-22s mean %8.2f ms  p50 %6.2f  p95 %6.2f  p99 %6.2f  p999 %6.2f ms@."
          stage
          (st.Kernel.Result.mean_us /. 1000.0)
          (float_of_int st.p50_us /. 1000.0)
          (float_of_int st.p95_us /. 1000.0)
          (float_of_int st.p99_us /. 1000.0)
          (float_of_int st.p999_us /. 1000.0))
      result.Kernel.Result.stage_stats;
    let tr = Obs.Ctl.trace ctl in
    let rollup = Obs.Export.epoch_rollup tr in
    if rollup <> [] then Format.printf "%a@." Obs.Export.pp_rollup rollup;
    let series = Obs.Gauges.series (Obs.Ctl.gauges ctl) in
    if series <> [] then begin
      Format.printf "gauges (samples / last / max):@.";
      List.iter
        (fun (name, samples) ->
          let n = List.length samples in
          let last =
            match List.rev samples with [] -> 0.0 | (_, v) :: _ -> v
          in
          let hi =
            List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 samples
          in
          Format.printf "  %-28s %5d  %12.1f  %12.1f@." name n last hi)
        series
    end;
    Format.printf "trace: %d events (%d emitted, %d dropped), faults: %d drops / %d \
       delays@."
      (Obs.Trace.length tr) (Obs.Trace.total tr) (Obs.Trace.dropped tr)
      (Obs.Ctl.fault_drops ctl) (Obs.Ctl.fault_delays ctl)
  in
  let doc =
    "Run a small traced YCSB experiment and print its per-epoch rollup,      stage tail latencies and gauge summaries."
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run $ engine $ servers $ ci $ sample $ epoch_ms $ warmup_ms
          $ measure_ms $ seed)

(* ---- epoch-ledger timeline / doctor ------------------------------------- *)

let pp_incident (i : Obs.Analyze.incident) =
  let phase label a b =
    if a >= 0 && b >= a then Printf.sprintf " %s %d us" label (b - a) else ""
  in
  Format.printf
    "  incident: partition %d, node %d -> node %d%s%s%s%s@."
    i.Obs.Analyze.i_partition i.Obs.Analyze.crashed_node
    i.Obs.Analyze.promoted_node
    (phase "detect" i.Obs.Analyze.crash_us i.Obs.Analyze.detect_us)
    (phase "promote" i.Obs.Analyze.detect_us i.Obs.Analyze.promote_us)
    (phase "first-commit" i.Obs.Analyze.promote_us
       i.Obs.Analyze.first_commit_us)
    (if Obs.Analyze.resolved i then "" else " UNRESOLVED")

let pp_segment idx (s : Obs.Analyze.segment) =
  Format.printf
    "segment %d: cfg epoch %d us, %d nodes, k=%d, %d epoch rows, %d events@."
    idx s.Obs.Analyze.cfg_epoch_us s.Obs.Analyze.nodes s.Obs.Analyze.replicas
    (List.length s.Obs.Analyze.rows)
    (List.length s.Obs.Analyze.events);
  List.iter pp_incident (Obs.Analyze.incidents s);
  List.iter
    (fun (a : Obs.Analyze.anomaly) ->
      Format.printf "  anomaly[%s]: %s@." a.Obs.Analyze.a_kind
        a.Obs.Analyze.a_detail)
    (Obs.Analyze.anomalies s)

let timeline_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Chaos schedule seed.")
  in
  let servers =
    Arg.(value & opt int 3 & info [ "servers"; "n" ] ~doc:"Cluster size.")
  in
  let replicas =
    Arg.(value & opt int 2
         & info [ "replicas"; "k" ]
             ~doc:"Replication degree for the recorded chaos run (k > 1 \
                   crashes every backend once, so the timeline holds \
                   failover incidents).")
  in
  let out =
    Arg.(value & opt string "TIMELINE.jsonl"
         & info [ "out"; "o" ]
             ~doc:"Timeline output path (appended, one segment per run).")
  in
  let inspect =
    Arg.(value & opt (some string) None
         & info [ "inspect" ] ~docv:"FILE"
             ~doc:"Do not run anything; summarize an existing timeline \
                   file instead.")
  in
  let run seed servers replicas out inspect =
    match inspect with
    | Some path ->
        let segs = Obs.Analyze.load path in
        Format.printf "%s: %d segment(s)@." path (List.length segs);
        List.iteri pp_segment segs
    | None ->
        let target =
          match Chaos.Driver.target_of_name "aloha" with
          | Some t -> t
          | None -> assert false
        in
        let ledger = Obs.Ledger.create () in
        let obs = Obs.Ctl.create ~ledger () in
        let r =
          Chaos.Driver.run_seed ~replicas ~obs target ~seed
            ~n_servers:servers
        in
        Harness.Report.write_timeline out r.Chaos.Driver.timeline;
        Format.printf
          "appended %d lines to %s (seed %d, k=%d, committed %d/%d)@."
          (List.length r.Chaos.Driver.timeline)
          out seed r.Chaos.Driver.replicas r.Chaos.Driver.committed
          r.Chaos.Driver.submitted;
        List.iteri pp_segment
          (Obs.Analyze.parse_lines r.Chaos.Driver.timeline);
        if not (Chaos.Driver.passed r) then begin
          List.iter
            (fun v -> Format.eprintf "  violation: %s@." v)
            r.Chaos.Driver.violations;
          exit 1
        end
  in
  let doc =
    "Record an epoch-ledger timeline: run one replicated chaos schedule \
     with the ledger attached, append the segment to TIMELINE.jsonl, and \
     print the reconstructed failover incidents.  --inspect summarizes an \
     existing file instead."
  in
  Cmd.v (Cmd.info "timeline" ~doc)
    Term.(const run $ seed $ servers $ replicas $ out $ inspect)

let doctor_cmd =
  let file =
    Arg.(value & pos 0 string "TIMELINE.jsonl"
         & info [] ~docv:"FILE" ~doc:"Timeline file to check.")
  in
  let report =
    Arg.(value & opt string ""
         & info [ "report" ]
             ~doc:"Also write the reconstructed incidents (JSON) to this \
                   path.")
  in
  let run file report_path =
    let segs =
      try Obs.Analyze.load file with
      | Sys_error m ->
          Format.eprintf "doctor: %s@." m;
          exit 2
      | Failure m ->
          Format.eprintf "doctor: %s: %s@." file m;
          exit 2
    in
    if segs = [] then begin
      Format.eprintf "doctor: %s holds no timeline segments@." file;
      exit 2
    end;
    let violations = List.concat_map Obs.Analyze.check segs in
    let incidents = List.concat_map Obs.Analyze.incidents segs in
    let anomalies = List.concat_map Obs.Analyze.anomalies segs in
    Format.printf
      "%s: %d segment(s), %d incident(s), %d anomaly(ies), %d violation(s)@."
      file (List.length segs) (List.length incidents) (List.length anomalies)
      (List.length violations);
    List.iteri pp_segment segs;
    if report_path <> "" then begin
      let oc = open_out report_path in
      Printf.fprintf oc "{\"file\":%S,\"incidents\":[%s],\"violations\":%d}\n"
        file
        (String.concat "," (List.map Obs.Analyze.incident_json incidents))
        (List.length violations);
      close_out oc
    end;
    if violations <> [] then begin
      List.iter (fun v -> Format.eprintf "  violation: %s@." v) violations;
      exit 1
    end
  in
  let doc =
    "Check a TIMELINE.jsonl against the ledger invariants (contiguous \
     closed epochs, monotone watermarks modulo crashes, crashes answered \
     by restart or promotion, incidents resolved) and exit nonzero on any \
     violation."
  in
  Cmd.v (Cmd.info "doctor" ~doc) Term.(const run $ file $ report)

let () =
  let doc =
    "ALOHA-DB: scalable transaction processing using functors (ICDCS'18 \
     reproduction)"
  in
  let info = Cmd.info "alohadb_cli" ~doc in
  exit (Cmd.eval (Cmd.group info
       [ run_cmd; figure_cmd; table1_cmd; chaos_cmd; trace_cmd; stats_cmd;
         timeline_cmd; doctor_cmd ]))
