(* Observability subsystem: trace ring buffer, sampling, gauges, the
   Chrome exporter, epoch rollups, fault correlation, and — the contract
   that justifies shipping tracing on by default in experiments — that
   tracing never perturbs simulated results. *)

let all_stages =
  [ Obs.Trace.Submit; Epoch_assign; Functor_write; Batch_ack; Epoch_close;
    Compute_start; Compute_done; Read_served; Sequenced; Scheduled;
    Locks_acquired; Exec_start; Exec_done; Lock_timeout; Prepared;
    Committed; Aborted; Restarted; Fault_drop; Fault_delay;
    Plan_build; Plan_evaluate; Stratum_dispatch; Wal_ship; Promote;
    Fastpath_commit ]

(* The ring stores stages as ints: every stage comes back out as itself. *)
let events tr =
  let acc = ref [] in
  Obs.Trace.iter tr ~f:(fun e -> acc := e :: !acc);
  List.rev !acc

let test_stage_codec () =
  let t = Obs.Trace.create () in
  List.iteri
    (fun i stage ->
      Obs.Trace.emit t ~txn:i ~stage ~node:0 ~ts:i ~arg:(-1) ~tag:0)
    all_stages;
  Alcotest.(check (list string)) "roundtrip through the ring"
    (List.map Obs.Trace.stage_name all_stages)
    (List.map (fun e -> Obs.Trace.stage_name e.Obs.Trace.stage) (events t));
  let names = List.map Obs.Trace.stage_name all_stages in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_ring_wrap () =
  let t = Obs.Trace.create ~capacity:8 () in
  for i = 0 to 11 do
    Obs.Trace.emit t ~txn:i ~stage:Obs.Trace.Submit ~node:0 ~ts:(i * 10)
      ~arg:(-1) ~tag:0
  done;
  Alcotest.(check int) "length capped" 8 (Obs.Trace.length t);
  Alcotest.(check int) "total counts everything" 12 (Obs.Trace.total t);
  Alcotest.(check int) "dropped = overflow" 4 (Obs.Trace.dropped t);
  let seen = ref [] in
  Obs.Trace.iter t ~f:(fun e -> seen := e.Obs.Trace.txn :: !seen);
  Alcotest.(check (list int)) "oldest-first, newest kept"
    [ 4; 5; 6; 7; 8; 9; 10; 11 ]
    (List.rev !seen)

let test_sampling () =
  let t = Obs.Trace.create ~sample:4 () in
  Alcotest.(check bool) "multiple sampled" true
    (Obs.Trace.would_sample t ~txn:8);
  Alcotest.(check bool) "non-multiple skipped" false
    (Obs.Trace.would_sample t ~txn:9);
  Alcotest.(check bool) "negative ids always sampled" true
    (Obs.Trace.would_sample t ~txn:(-1))

let test_gauges_sampler () =
  let sim = Sim.Engine.create () in
  let metrics = Sim.Metrics.create () in
  let g = Obs.Gauges.create ~interval_us:1_000 () in
  Obs.Gauges.bind_metrics g metrics;
  let ticks = ref 0 in
  Obs.Gauges.add_probe g (fun () ->
      incr ticks;
      Sim.Metrics.set_gauge metrics "gauge.ticks" (float_of_int !ticks));
  Obs.Gauges.arm g ~sim ~for_us:10_000;
  Sim.Engine.run ~until:20_000 sim;
  (* Horizon-bounded: no samples past for_us even though the sim ran on. *)
  Alcotest.(check bool) "sampled ~10 times" true (!ticks >= 9 && !ticks <= 11);
  match Obs.Gauges.series g with
  | [ (name, samples) ] ->
      Alcotest.(check string) "series name" "gauge.ticks" name;
      Alcotest.(check int) "one sample per tick" !ticks
        (List.length samples);
      let ts = List.map fst samples in
      Alcotest.(check (list int)) "timestamps ascending"
        (List.sort compare ts) ts
  | other ->
      Alcotest.failf "expected one series, got %d" (List.length other)

let test_fault_correlation () =
  let ctl = Obs.Ctl.create () in
  let tr = Obs.Ctl.trace ctl in
  (* No fault seen yet: must not tag (regression: min_int arithmetic). *)
  Obs.Ctl.emit ctl ~txn:1 ~stage:Obs.Trace.Submit ~node:0 ~ts:100 ();
  Obs.Ctl.note_fault ctl ~now:1_000 ~node:0 ~kind:`Drop;
  Obs.Ctl.emit ctl ~txn:2 ~stage:Obs.Trace.Submit ~node:0 ~ts:2_500 ();
  Obs.Ctl.emit ctl ~txn:3 ~stage:Obs.Trace.Submit ~node:0 ~ts:9_999 ();
  let tags =
    List.map
      (fun e -> (e.Obs.Trace.txn, e.Obs.Trace.tag))
      (events tr)
  in
  Alcotest.(check bool) "pre-fault untagged" true (List.mem_assoc 1 tags);
  Alcotest.(check int) "pre-fault tag" 0 (List.assoc 1 tags);
  Alcotest.(check int) "within window tagged" 1 (List.assoc 2 tags);
  Alcotest.(check int) "outside window untagged" 0 (List.assoc 3 tags);
  Alcotest.(check int) "drop counted" 1 (Obs.Ctl.fault_drops ctl);
  (* The fault marker itself lands in the ring as a negative-id event. *)
  Alcotest.(check bool) "fault marker present" true
    (List.exists
       (fun e -> e.Obs.Trace.stage = Obs.Trace.Fault_drop)
       (events tr));
  Obs.Ctl.measure_reset ctl;
  Alcotest.(check int) "reset clears ring" 0 (Obs.Trace.length tr);
  Alcotest.(check int) "reset clears counters" 0 (Obs.Ctl.fault_drops ctl);
  Obs.Ctl.emit ctl ~txn:4 ~stage:Obs.Trace.Submit ~node:0 ~ts:10_100 ();
  (match events tr with
  | [ e ] -> Alcotest.(check int) "correlation forgotten" 0 e.Obs.Trace.tag
  | _ -> Alcotest.fail "expected exactly one event after reset")

(* The document [write] puts at a fresh temporary path. *)
let chrome_doc write =
  let path = Filename.temp_file "trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write ~path;
      In_channel.with_open_bin path In_channel.input_all)

let test_chrome_export () =
  let ctl = Obs.Ctl.create () in
  List.iteri
    (fun i stage ->
      Obs.Ctl.emit ctl ~txn:7 ~stage ~node:(i mod 2) ~ts:(100 * (i + 1))
        ~arg:3 ())
    [ Obs.Trace.Submit; Epoch_assign; Functor_write; Batch_ack;
      Compute_start; Compute_done ];
  Obs.Ctl.emit ctl ~txn:(-1) ~stage:Obs.Trace.Epoch_close ~node:0 ~ts:900
    ~arg:3 ();
  let json =
    chrome_doc (fun ~path ->
        Obs.Export.write_chrome_trace ~path ~engine:"aloha"
          ~trace:(Obs.Ctl.trace ctl) ~gauges:None ())
  in
  let has needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i =
      i + nl <= jl && (String.sub json i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "traceEvents array" true (has "\"traceEvents\":[");
  Alcotest.(check bool) "process metadata" true (has "\"process_name\"");
  Alcotest.(check bool) "instant events" true (has "\"ph\":\"i\"");
  Alcotest.(check bool) "span event for txn" true (has "\"ph\":\"X\"");
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "stage %s exported" n) true
        (has (Printf.sprintf "\"name\":\"%s\"" n)))
    [ "submit"; "epoch_assign"; "functor_write"; "batch_ack"; "epoch_close";
      "compute_start"; "compute_done" ];
  Alcotest.(check bool) "ts field" true (has "\"ts\":100");
  Alcotest.(check bool) "pid field" true (has "\"pid\":0");
  Alcotest.(check bool) "tid field" true (has "\"tid\":")

(* Chrome-trace well-formedness: parse the exported document with the
   timeline JSON reader and hold it to the trace_events contract — every
   event carries pid/tid/ts, duration ("B"/"E") events balance per tid,
   and counter samples are monotone in ts per series.  Includes the
   ledger-driven per-worker tracks, which are the only emitter of "B"/"E"
   pairs. *)
let test_chrome_well_formed () =
  let ctl = Obs.Ctl.create ~gauge_interval_us:1_000 () in
  List.iteri
    (fun i stage ->
      Obs.Ctl.emit ctl ~txn:i ~stage ~node:(i mod 2) ~ts:(50 * (i + 1))
        ~arg:2 ())
    [ Obs.Trace.Submit; Epoch_assign; Functor_write; Committed; Submit;
      Epoch_assign ];
  let sim = Sim.Engine.create () in
  let metrics = Sim.Metrics.create () in
  let g = Obs.Ctl.gauges ctl in
  Obs.Gauges.bind_metrics g metrics;
  let tick = ref 0 in
  Obs.Gauges.add_probe g (fun () ->
      incr tick;
      Sim.Metrics.set_gauge metrics "gauge.tick" (float_of_int !tick));
  Obs.Gauges.arm g ~sim ~for_us:5_000;
  Sim.Engine.run ~until:6_000 sim;
  let ledger = Obs.Ledger.create () in
  Obs.Ledger.note_stratum ledger ~node:0 ~t0_us:1_000 ~t1_us:1_400 ~size:8
    ~workers:[| 5; 3 |];
  Obs.Ledger.note_stratum ledger ~node:0 ~t0_us:1_500 ~t1_us:1_650 ~size:2
    ~workers:[| 2; 0 |];
  let doc =
    chrome_doc (fun ~path ->
        Obs.Export.write_chrome_trace ~path ~engine:"aloha" ~ledger
          ~trace:(Obs.Ctl.trace ctl) ~gauges:(Some g) ())
  in
  let open Obs.Analyze.Json in
  let events =
    match member "traceEvents" (parse doc) with
    | Some (Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "document holds events" true (events <> []);
  (* Per-tid B/E balance and per-counter-series ts monotonicity. *)
  let depth = Hashtbl.create 8 in
  let last_counter_ts = Hashtbl.create 8 in
  let b_seen = ref 0 in
  List.iter
    (fun ev ->
      let ph = to_str (member "ph" ev) ~default:"?" in
      let pid = to_int (member "pid" ev) ~default:min_int in
      let tid = to_int (member "tid" ev) ~default:min_int in
      let ts = to_int (member "ts" ev) ~default:min_int in
      Alcotest.(check bool) "every event has a pid" true (pid > min_int);
      Alcotest.(check bool) "every event has a ts" true (ts > min_int);
      (* counters live on pid 0 without a tid; all else has one *)
      if ph <> "C" then
        Alcotest.(check bool) "every non-counter event has a tid" true
          (tid > min_int);
      match ph with
      | "B" ->
          incr b_seen;
          Hashtbl.replace depth (pid, tid)
            (1
            + (match Hashtbl.find_opt depth (pid, tid) with
              | Some d -> d
              | None -> 0))
      | "E" ->
          let d =
            match Hashtbl.find_opt depth (pid, tid) with
            | Some d -> d
            | None -> 0
          in
          Alcotest.(check bool) "E never precedes its B" true (d > 0);
          Hashtbl.replace depth (pid, tid) (d - 1)
      | "C" ->
          let name = to_str (member "name" ev) ~default:"" in
          (match Hashtbl.find_opt last_counter_ts name with
          | Some prev ->
              Alcotest.(check bool)
                (Printf.sprintf "counter %s monotone in ts" name)
                true (ts >= prev)
          | None -> ());
          Hashtbl.replace last_counter_ts name ts
      | _ -> ())
    events;
  Hashtbl.iter
    (fun (pid, tid) d ->
      Alcotest.(check int)
        (Printf.sprintf "B/E balanced on pid %d tid %d" pid tid)
        0 d)
    depth;
  Alcotest.(check bool) "worker spans exported" true (!b_seen >= 3);
  Alcotest.(check bool) "counter series sampled" true
    (Hashtbl.length last_counter_ts > 0);
  (* Worker lanes sit above the shard lanes and are named. *)
  let has needle =
    let nl = String.length needle and jl = String.length doc in
    let rec go i =
      i + nl <= jl && (String.sub doc i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "worker thread names" true
    (has "\"name\":\"worker 1\"");
  Alcotest.(check bool) "worker tid above shards" true (has "\"tid\":65")

let test_epoch_rollup () =
  let t = Obs.Trace.create () in
  let emit txn stage arg ts =
    Obs.Trace.emit t ~txn ~stage ~node:0 ~ts ~arg ~tag:0
  in
  emit 1 Obs.Trace.Epoch_assign 5 10;
  emit 2 Obs.Trace.Epoch_assign 5 12;
  emit 1 Obs.Trace.Functor_write 5 20;
  emit 1 Obs.Trace.Batch_ack 5 30;
  emit (-1) Obs.Trace.Epoch_close 5 40;
  emit 3 Obs.Trace.Epoch_assign 6 50;
  match Obs.Export.epoch_rollup t with
  | [ r5; r6 ] ->
      Alcotest.(check int) "epoch" 5 r5.Obs.Export.epoch;
      Alcotest.(check int) "assigned" 2 r5.Obs.Export.assigned;
      Alcotest.(check int) "functor writes" 1 r5.Obs.Export.functor_writes;
      Alcotest.(check int) "acks" 1 r5.Obs.Export.batch_acks;
      Alcotest.(check int) "close ts" 40 r5.Obs.Export.close_ts;
      Alcotest.(check int) "next epoch" 6 r6.Obs.Export.epoch;
      Alcotest.(check int) "unclosed" (-1) r6.Obs.Export.close_ts
  | rows -> Alcotest.failf "expected 2 rollup rows, got %d" (List.length rows)

(* The load-bearing invariant: turning tracing on (at any sampling rate)
   must not change simulated behaviour.  Same seed, same workload, with
   tracing off vs 1-in-16 sampling — identical commits and throughput. *)
let test_overhead_neutral () =
  let point obs =
    let engine = List.assoc "aloha" Harness.Setup.engines in
    let built =
      Harness.Setup.ycsb ~engine ~n:2 ~ci:0.01 ~keys_per_partition:1_000
        ?obs ~seed:23 ()
    in
    Harness.Setup.run built
      ~arrival:(Kernel.Arrivals.Closed { clients_per_fe = 100 })
      ?obs ~warmup_us:30_000 ~measure_us:40_000 ~seed:23 ()
  in
  let bare = point None in
  let ctl = Obs.Ctl.create ~sample:16 () in
  let traced = point (Some ctl) in
  Alcotest.(check int) "identical commits" bare.Kernel.Result.committed
    traced.Kernel.Result.committed;
  Alcotest.(check (float 1e-9)) "identical tps"
    bare.Kernel.Result.throughput_tps traced.Kernel.Result.throughput_tps;
  Alcotest.(check (float 1e-9)) "identical mean latency"
    bare.Kernel.Result.lat_mean_us traced.Kernel.Result.lat_mean_us;
  (* And the traced run actually recorded something. *)
  Alcotest.(check bool) "trace non-empty" true
    (Obs.Trace.total (Obs.Ctl.trace ctl) > 0);
  Alcotest.(check bool) "gauges sampled" true
    (Obs.Gauges.series (Obs.Ctl.gauges ctl) <> [])

let test_telemetry_file () =
  let engine = List.assoc "aloha" Harness.Setup.engines in
  let ctl = Obs.Ctl.create () in
  let built =
    Harness.Setup.ycsb ~engine ~n:2 ~ci:0.01 ~keys_per_partition:1_000
      ~obs:ctl ()
  in
  let result =
    Harness.Setup.run built
      ~arrival:(Kernel.Arrivals.Closed { clients_per_fe = 50 })
      ~obs:ctl ~warmup_us:20_000 ~measure_us:20_000 ()
  in
  let path = Filename.temp_file "telemetry" ".jsonl" in
  Harness.Report.write path
    [ Harness.Report.telemetry ~engine:"aloha" ~workload:"ycsb" ~result ~ctl
        () ];
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  let record = Obs.Analyze.Json.parse line in
  let get path =
    List.fold_left
      (fun j name -> Option.bind j (Obs.Analyze.Json.member name))
      (Some record) path
  in
  Alcotest.(check string) "suite" "telemetry"
    (Obs.Analyze.Json.to_str (get [ "suite" ]));
  Alcotest.(check string) "engine label" "aloha"
    (Obs.Analyze.Json.to_str (get [ "labels"; "engine" ]));
  let metric name =
    match get [ "metrics"; name; "value" ] with
    | Some (Obs.Analyze.Json.Num v) -> v
    | _ -> Alcotest.failf "metric %s missing" name
  in
  Alcotest.(check (float 0.)) "lat_p999_us"
    (float_of_int result.Kernel.Result.lat_p999_us)
    (metric "lat_p999_us");
  (match result.Kernel.Result.stage_stats with
  | (stage, st) :: _ ->
      Alcotest.(check (float 0.)) "stage p99"
        (float_of_int st.Kernel.Result.p99_us)
        (metric (Printf.sprintf "stage.%s.p99_us" stage))
  | [] -> Alcotest.fail "no stage stats");
  Alcotest.(check bool) "a gauge's last value" true
    (metric "gauge.compute_queue_depth.last" >= 0.);
  Alcotest.(check (float 0.)) "trace.sample_rate"
    (float_of_int (Obs.Trace.sample_rate (Obs.Ctl.trace ctl)))
    (metric "trace.sample_rate");
  Alcotest.(check bool) "host block" true (get [ "host"; "commit" ] <> None)

(* The Calvin and 2PL gauge probes.  A lossy window and a partition
   drop messages on the RPC plane (a baseline may stall on them; only
   the probes are checked): every gauge the probe publishes must be
   sampled, and the last [gauge.net_drops] must be the cluster's whole
   drop count.  Loss stops well before the last sample, so nothing is
   dropped after it. *)
module type BASELINE = sig
  include Kernel.Intf.ENGINE

  val drop_stats : cluster -> Net.Network.drop_stats
end

let test_baseline_gauges (module E : BASELINE) gauges () =
  let n_servers = 2 in
  let faults = Net.Faults.create ~seed:11 () in
  Net.Faults.install faults
    [ Net.Faults.edict Net.Faults.Drop ~p:0.2 ~from_us:2_000 ~until_us:60_000 ];
  Net.Faults.partition faults
    ~group:[ Net.Address.of_int 0 ]
    ~from_us:20_000 ~until_us:80_000;
  let ctl = Obs.Ctl.create () in
  let c = E.create (Kernel.Params.make ~faults ~obs:ctl ~n_servers ()) in
  let keys =
    List.init 8 (fun i -> Printf.sprintf "g:%d:%d" (i mod n_servers) i)
  in
  List.iter (fun k -> E.load c k (Functor_cc.Value.int 0)) keys;
  let sim = E.sim c in
  Obs.Ctl.arm ctl ~sim ~for_us:200_000;
  E.start c;
  for i = 0 to 59 do
    Sim.Engine.schedule sim ~at:(1_000 + (i * 1_000)) (fun () ->
        let k j = (List.nth keys ((i + j) mod 8), Kernel.Txn.Add 1) in
        E.submit c ~fe:(i mod n_servers)
          (Kernel.Txn.make [ k 0; k 1 ])
          ~k:(fun _ -> ()))
  done;
  Sim.Engine.run ~until:250_000 sim;
  let d = E.drop_stats c in
  let total =
    d.Net.Network.injected + d.partitioned + d.crashed + d.unregistered
  in
  Alcotest.(check bool) "the lossy run dropped messages" true
    (d.injected > 0 && d.partitioned > 0);
  let series = Obs.Gauges.series (Obs.Ctl.gauges ctl) in
  let points name =
    match List.assoc_opt name series with
    | Some (_ :: _ as points) -> points
    | _ -> Alcotest.fail (E.name ^ ": no samples of " ^ name)
  in
  List.iter (fun g -> ignore (points g)) ("gauge.net_drops" :: gauges);
  let last = List.rev (points "gauge.net_drops") |> List.hd |> snd in
  Alcotest.(check int) (E.name ^ " gauge = drop_stats") total
    (int_of_float last)

let suite =
  [ Alcotest.test_case "stage codec" `Quick test_stage_codec;
    Alcotest.test_case "ring wrap" `Quick test_ring_wrap;
    Alcotest.test_case "sampling" `Quick test_sampling;
    Alcotest.test_case "gauges sampler" `Quick test_gauges_sampler;
    Alcotest.test_case "fault correlation" `Quick test_fault_correlation;
    Alcotest.test_case "chrome export" `Quick test_chrome_export;
    Alcotest.test_case "chrome trace well-formed" `Quick
      test_chrome_well_formed;
    Alcotest.test_case "epoch rollup" `Quick test_epoch_rollup;
    Alcotest.test_case "tracing is behaviour-neutral" `Quick
      test_overhead_neutral;
    Alcotest.test_case "telemetry file" `Quick test_telemetry_file;
    Alcotest.test_case "calvin gauge probes" `Quick
      (test_baseline_gauges
         (module Calvin.Engine)
         [ "gauge.lock_queue_depth"; "gauge.inflight_txns" ]);
    Alcotest.test_case "twopl gauge probes" `Quick
      (test_baseline_gauges
         (module Twopl.Engine)
         [ "gauge.lock_waits"; "gauge.prepared_txns" ]) ]
