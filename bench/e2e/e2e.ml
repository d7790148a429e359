(* End-to-end benchmark: runs one named workload for a given number of
   host seconds and prints one JSON record with its metrics, the
   correctness verdict of its oracles, and the operation counts.

     e2e.exe --workload NAME --seed S --seconds T [--traced]
     e2e.exe --smoke

   The untraced pass measures the end-to-end metrics; --traced adds the
   outside timers and counters around each layer's calls, attaches
   Obs.Ctl (1-in-16 sampling) with an epoch ledger, and reports the
   per-layer metrics.  --smoke runs every workload at a tiny scale
   through both passes, then checks that a corrupted expectation is
   rejected by the oracles.  bench/e2e/run.py builds and drives this
   executable; README.md documents the workloads and metrics. *)

type workload =
  | Aloha of Aloha_wl.spec
  | Real of Real_wl.spec

let closed n = Kernel.Arrivals.Closed { clients_per_fe = n }
let poisson rate = Kernel.Arrivals.Open_poisson { rate_per_fe = rate }

let ycsb ~ci ~keys arrival ~fastpath ~replicas ~warmup_us ~measure_us =
  Aloha
    { Aloha_wl.kind = Ycsb { ci; keys_per_partition = keys };
      arrival; fastpath; replicas; warmup_us; measure_us }

(* Client counts stay below the CLI default of 2,000 per frontend, which
   grows the heap past 0.75 GB; see README.md. *)
let workloads ~smoke =
  let w full tiny = if smoke then tiny else full in
  let warmup_us = 25_000 and measure_us = w 75_000 50_000 in
  [ ( "ycsb-hot",
      ycsb ~ci:0.1 ~keys:(w 50_000 100) (closed (w 1_000 4)) ~fastpath:false
        ~replicas:1 ~warmup_us ~measure_us );
    ( "stpcc-neworder",
      Aloha
        { Aloha_wl.kind = Stpcc { districts_per_host = 10 };
          arrival = closed (w 500 4);
          fastpath = false; replicas = 1;
          warmup_us; measure_us } );
    ( "counter-fastpath",
      ycsb ~ci:0.01 ~keys:(w 50_000 200) (poisson (w 40_000. 2_000.))
        ~fastpath:true ~replicas:1 ~warmup_us ~measure_us );
    ( "counter-fastpath-k2",
      ycsb ~ci:0.01 ~keys:(w 50_000 200) (poisson (w 40_000. 2_000.))
        ~fastpath:true ~replicas:2 ~warmup_us ~measure_us );
    ( "epoch-real2",
      Real { Real_wl.n_keys = w 64 8; n_ops = w 16_384 512 } ) ]

(* ---- metric tables ------------------------------------------------------ *)

let end_to_end =
  [ ("host_txn_per_s", "txn/s"); ("setup_s", "s"); ("peak_rss_mb", "MB");
    ("sim_tps", "txn/sim_s"); ("sim_p50_ms", "sim_ms"); ("sim_p999_ms", "sim_ms");
    ("sim_samples", "count"); ("failed_frac", "fraction") ]

let per_layer =
  [ ("sim_tps", "txn/sim_s"); ("sim_p50_ms", "sim_ms"); ("sim_p999_ms", "sim_ms");
    ("sim_samples", "count"); ("failed_frac", "fraction");
    ("sim.events_per_txn", "count"); ("sim.ns_per_event", "ns");
    ("net.msgs_per_txn", "count");
    ("workload.gen_us_per_txn", "us");
    ("alohadb.functors_per_txn", "count");
    ("alohadb.install_p50_ms", "sim_ms"); ("alohadb.install_p99_ms", "sim_ms");
    ("alohadb.fastpath_commit_p50_ms", "sim_ms");
    ("alohadb.wait_p50_ms", "sim_ms");
    ("alohadb.proc_p50_ms", "sim_ms"); ("alohadb.proc_p99_ms", "sim_ms");
    ("alohadb.sim_cpu_util", "fraction");
    ("alohadb.install_abort_frac", "fraction");
    ("alohadb.repl_host_overhead", "fraction");
    ("alohadb.repl_msgs_per_txn", "count");
    ("epoch.host_ms_p50", "ms"); ("epoch.host_ms_p99", "ms");
    ("epoch.stretch_p99", "ratio");
    ("functor_cc.computed_per_txn", "count");
    ("functor_cc.plan_nodes_per_plan", "count");
    ("functor_cc.plan_strata_mean", "count");
    ("functor_cc.plan_evaluate_p50_ms", "sim_ms");
    ("functor_cc.handler_calls_per_txn", "count");
    ("functor_cc.remote_reads_per_txn", "count");
    ("functor_cc.push_useful_frac", "fraction");
    ("functor_cc.on_demand_waits_per_txn", "count");
    ("functor_cc.fastpath_merges_per_txn", "count");
    ("runtime.strata_per_epoch", "count"); ("runtime.in_stratum_frac", "fraction");
    ("runtime.steal_frac", "fraction"); ("runtime.fallback_frac", "fraction");
    ("runtime.speedup_vs_1domain", "ratio");
    ("gc.minor_words_per_txn", "words"); ("gc.major_words_per_txn", "words");
    ("gc.major_collections", "count");
    ("kernel.unattributed_host_frac", "fraction");
    ("obs.trace_overhead_frac", "fraction") ]

(* Host times of layers that only some workloads exercise: printed where
   they apply, never as a constant stand-in where they do not. *)
let workload_specific =
  [ ("alohadb.submit_us_per_txn", "us"); ("functor_cc.handler_us_per_call", "us");
    ("functor_cc.plan_build_p50_ms", "ms"); ("runtime.planner_ms_p50", "ms");
    ("runtime.replay_ms_p50", "ms"); ("runtime.epoch_ms_p90", "ms") ]

(* Per-layer metrics of layers a workload never calls: reported as 0. *)
let runtime_layer =
  [ "runtime.strata_per_epoch"; "runtime.in_stratum_frac"; "runtime.steal_frac";
    "runtime.fallback_frac"; "runtime.speedup_vs_1domain" ]

let not_exercised = function
  | Aloha { replicas; _ } ->
      runtime_layer
      @ if replicas > 1 then []
        else [ "alohadb.repl_host_overhead"; "alohadb.repl_msgs_per_txn" ]
  | Real _ ->
      [ "sim_tps"; "sim_p50_ms"; "sim_p999_ms"; "sim_samples"; "failed_frac";
        "net.msgs_per_txn"; "epoch.stretch_p99"; "functor_cc.handler_calls_per_txn" ]
      @ List.filter_map
          (fun (name, _) ->
            if String.starts_with ~prefix:"alohadb." name then Some name else None)
          per_layer

(* Per-layer host costs that the untraced repetitions measure as well. *)
let untraced_host =
  [ "sim.ns_per_event"; "gc.minor_words_per_txn"; "gc.major_words_per_txn";
    "gc.major_collections" ]

(* ---- repetitions -------------------------------------------------------- *)

(* Run one repetition of each variant in turn, and keep cycling while
   another cycle fits in [seconds] of host time (at least one cycle).
   Returns each variant's repetitions in run order, and the process's
   memory high-water mark after the first repetition: later ones reuse
   a fragmented heap, so the mark would otherwise grow with their
   number. *)
let repeat ~seconds variants =
  let t0 = Probe.now_ns () in
  let reps = List.map (fun (name, _) -> (name, ref [])) variants in
  let first_rss = ref None in
  let rec cycle () =
    let c0 = Probe.now_ns () in
    List.iter
      (fun (name, run) ->
        (* Free the previous repetition before building the next. *)
        Gc.compact ();
        let r = List.assoc name reps in
        r := run () :: !r;
        if !first_rss = None then first_rss := Some (Probe.peak_rss_mb ()))
      variants;
    let now = Probe.now_ns () in
    if Probe.seconds (now - t0 + (now - c0)) <= seconds then cycle ()
  in
  cycle ();
  (List.map (fun (name, r) -> (name, List.rev !r)) reps, Option.get !first_rss)

type outcome = {
  reps : (string * Probe.rep list) list;
  values : (string * float) list;
}

let measure workload ~seed ~seconds ~traced =
  let reps =
    match workload with
    | Aloha spec ->
        let run ~traced ~replicas () =
          Aloha_wl.run_rep spec ~seed ~traced ~replicas ()
        in
        [ ("base", run ~traced:false ~replicas:spec.replicas) ]
        @ (if traced then [ ("traced", run ~traced:true ~replicas:spec.replicas) ]
           else [])
        @
        if traced && spec.replicas > 1 then
          [ ("traced_k1", run ~traced:true ~replicas:1) ]
        else []
    | Real spec ->
        let run ~domains ~traced () =
          Real_wl.run_rep spec ~seed ~domains ~traced ()
        in
        [ ("base", run ~domains:2 ~traced:false) ]
        @
        if traced then
          [ ("traced", run ~domains:2 ~traced:true);
            ("one_domain", run ~domains:1 ~traced:false) ]
        else []
  in
  let reps, peak_rss_mb = repeat ~seconds reps in
  let variant name = List.assoc name reps in
  let base = variant "base" in
  let values =
    if not traced then
      (match workload with
      | Aloha _ ->
          List.map
            (fun name -> (name, Probe.sim_value base name))
            Probe.sim_results
      | Real _ -> [])
      @ [ ("host_txn_per_s", Probe.host_median base "host_txn_per_s");
          ("setup_s", Probe.host_median base "setup_s");
          ("peak_rss_mb", peak_rss_mb) ]
    else begin
      let traced_reps = variant "traced" in
      let medians reps =
        match reps with
        | [] -> []
        | r :: _ ->
            List.map (fun (name, _) -> (name, Probe.host_median reps name)) r.Probe.host
      in
      let sims reps = match reps with [] -> [] | r :: _ -> r.Probe.sim in
      (* Host costs that need no probes, and simulated values, come from
         the untraced repetitions: tracing adds its own work and events. *)
      let untraced =
        List.filter
          (fun (name, _) -> List.mem name untraced_host)
          (medians base)
        @ sims base
      in
      let overhead a b =
        1. -. Probe.ratio (Probe.host_median a "host_txn_per_s")
                (Probe.host_median b "host_txn_per_s")
      in
      let derived =
        ("obs.trace_overhead_frac", overhead traced_reps base)
        ::
        (match workload with
        | Aloha spec ->
            (* Probe-timed calls against the untraced cost per transaction. *)
            ( "kernel.unattributed_host_frac",
              1. -. Probe.ratio
                      (Probe.host_median traced_reps "timed_us_per_txn")
                      (Probe.host_median base "wall_us_per_txn") )
            ::
            (if spec.replicas = 1 then []
             else
               let k1 = variant "traced_k1" in
               [ ("alohadb.repl_host_overhead", overhead traced_reps k1);
                 ("alohadb.repl_msgs_per_txn",
                  Probe.sim_value traced_reps "net.msgs_per_txn"
                  -. Probe.sim_value k1 "net.msgs_per_txn") ])
        | Real _ ->
            let epoch_ms reps = Probe.host_values reps "epoch_ms" in
            [ ("epoch.host_ms_p50", Probe.percentile (epoch_ms traced_reps) 50.);
              ("epoch.host_ms_p99", Probe.percentile (epoch_ms traced_reps) 99.);
              ("runtime.speedup_vs_1domain",
               Probe.ratio
                 (Probe.median (epoch_ms (variant "one_domain")))
                 (Probe.median (epoch_ms base)));
              ("runtime.planner_ms_p50", Probe.host_median traced_reps "planner_ms");
              ("runtime.replay_ms_p50", Probe.host_median traced_reps "replay_ms");
              ("runtime.epoch_ms_p90", Probe.percentile (epoch_ms base) 90.) ])
      in
      (* The first entry of a name wins. *)
      derived @ untraced @ medians traced_reps @ sims traced_reps
    end
  in
  { reps; values }

let failures_of workload { reps; _ } =
  let label = match workload with Aloha _ -> "aloha" | Real _ -> "epoch" in
  let base = List.assoc "base" reps in
  let others name = Option.value ~default:[] (List.assoc_opt name reps) in
  List.concat_map (fun (_, rs) -> List.concat_map (fun r -> r.Probe.failures) rs) reps
  (* Each variant repeats its own simulated values, and tracing and
     fault-free replication leave the simulated results unchanged. *)
  @ Probe.determinism_failures ~label base
      ~others:(others "traced" @ others "traced_k1")
  @ List.concat_map
      (fun name -> Probe.determinism_failures ~label (others name))
      [ "traced"; "traced_k1"; "one_domain" ]

(* Assemble the named metrics of one pass.  Raises [Failure] if a
   metric of the table was neither measured nor declared unexercised. *)
let metric_record workload ~traced { values; _ } =
  let m = Probe.metrics () in
  let lookup (name, unit) =
    match List.assoc_opt name values with
    | Some v -> Probe.add m name unit v
    | None when List.mem name (not_exercised workload) -> Probe.add m name unit 0.
    | None -> failwith ("metric not measured: " ^ name)
  in
  if not traced then List.iter lookup end_to_end
  else begin
    List.iter lookup per_layer;
    List.iter
      (fun (name, unit) ->
        match List.assoc_opt name values with
        | Some v -> Probe.add m name unit v
        | None -> ())
      workload_specific
  end;
  m

let run_one ~name ~seed ~seconds ~traced =
  let workload =
    match List.assoc_opt name (workloads ~smoke:false) with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (expected one of: %s)\n" name
          (String.concat ", " (List.map fst (workloads ~smoke:false)));
        exit 2
  in
  let outcome = measure workload ~seed ~seconds ~traced in
  let failures = failures_of workload outcome in
  let all_reps = List.concat_map snd outcome.reps in
  let attempted = List.fold_left (fun a r -> a + r.Probe.attempted) 0 all_reps in
  let failed = List.fold_left (fun a r -> a + r.Probe.failed) 0 all_reps in
  let m = metric_record workload ~traced outcome in
  let shown = List.filteri (fun i _ -> i < 10) failures in
  Printf.printf
    "{\"workload\": %s, \"seed\": %d, \"traced\": %b, \"seconds\": %s, \
     \"rep_host_txn_per_s\": {%s}, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"failures\": [%s], \"metrics\": %s}\n"
    (Probe.json_string name) seed traced (Probe.json_float seconds)
    (* Each variant's per-repetition host_txn_per_s, in run order. *)
    (String.concat ", "
       (List.map
          (fun (v, rs) ->
            Printf.sprintf "%s: [%s]" (Probe.json_string v)
              (String.concat ", "
                 (List.map Probe.json_float (Probe.host_values rs "host_txn_per_s"))))
          outcome.reps))
    (failures = [] && failed = 0)
    attempted failed
    (String.concat ", " (List.map Probe.json_string shown))
    (Probe.metrics_json m)

(* ---- smoke --------------------------------------------------------------- *)

let smoke () =
  let ok = ref true in
  let report name what failures =
    Printf.printf "[e2e smoke] %-20s %-8s %s\n%!" name what
      (match failures with [] -> "ok" | f :: _ -> "FAILED: " ^ f);
    if failures <> [] then ok := false
  in
  List.iter
    (fun (name, workload) ->
      List.iter
        (fun traced ->
          let outcome = measure workload ~seed:1 ~seconds:0. ~traced in
          ignore (metric_record workload ~traced outcome);
          report name (if traced then "traced" else "untraced")
            (failures_of workload outcome))
        [ false; true ])
    (workloads ~smoke:true);
  (* The oracles must reject a corrupted expectation. *)
  let rejected r = r.Probe.failures <> [] in
  List.iter
    (fun (name, workload) ->
      let caught =
        match workload with
        | Aloha spec ->
            rejected
              (Aloha_wl.run_rep ~corrupt_oracle:true spec ~seed:1 ~traced:false
                 ~replicas:spec.replicas ())
        | Real spec ->
            rejected
              (Real_wl.run_rep ~corrupt_oracle:true spec ~seed:1 ~domains:2
                 ~traced:false ())
      in
      report name "corrupt"
        (if caught then [] else [ "corrupted expectation accepted" ]))
    (List.filter
       (fun (name, _) -> List.mem name [ "ycsb-hot"; "stpcc-neworder"; "epoch-real2" ])
       (workloads ~smoke:true));
  if not !ok then exit 1

(* ---- command line --------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let traced = ref false and smoke_mode = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "S workload, arrival and cluster seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "T host seconds to measure (default 10)");
      ("--traced", Arg.Set traced, " per-layer pass");
      ("--smoke", Arg.Set smoke_mode, " tiny-scale run of every workload and oracle") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe --workload NAME [--seed S] [--seconds T] [--traced] | --smoke";
  if !smoke_mode then smoke ()
  else if !workload = "" then begin
    prerr_endline "e2e.exe: --workload is required";
    exit 2
  end
  else run_one ~name:!workload ~seed:!seed ~seconds:!seconds ~traced:!traced
