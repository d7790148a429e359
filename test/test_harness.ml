(* Load generation and the experiment driver. *)

let test_poisson_rate () =
  let sim = Sim.Engine.create () in
  let rng = Sim.Rng.create 3 in
  let count = ref 0 in
  Kernel.Arrivals.install ~sim ~rng ~n_fes:4
    ~arrival:(Kernel.Arrivals.Open_poisson { rate_per_fe = 1000.0 })
    ~submit:(fun ~fe:_ ~done_k:_ -> incr count);
  Sim.Engine.run ~until:1_000_000 sim;
  (* 4 FEs x 1000/s x 1 s = 4000 expected; allow 10 %. *)
  Alcotest.(check bool) "poisson rate"
    true (abs (!count - 4000) < 400)

let test_burst_arrivals_cluster_at_period () =
  let sim = Sim.Engine.create () in
  let rng = Sim.Rng.create 3 in
  let times = ref [] in
  Kernel.Arrivals.install ~sim ~rng ~n_fes:1
    ~arrival:
      (Kernel.Arrivals.Open_burst { rate_per_fe = 500.0; period_us = 20_000 })
    ~submit:(fun ~fe:_ ~done_k:_ -> times := Sim.Engine.now sim :: !times);
  Sim.Engine.run ~until:200_000 sim;
  Alcotest.(check bool) "some arrivals" true (List.length !times > 50);
  (* Every arrival lands exactly on a period boundary (+1 µs offset). *)
  List.iter
    (fun t ->
      Alcotest.(check int) "on period boundary" 1 ((t - 1) mod 20_000 + 1))
    !times

let test_closed_loop_sustains () =
  let sim = Sim.Engine.create () in
  let rng = Sim.Rng.create 3 in
  let inflight = ref 0 and max_inflight = ref 0 and completed = ref 0 in
  Kernel.Arrivals.install ~sim ~rng ~n_fes:2
    ~arrival:(Kernel.Arrivals.Closed { clients_per_fe = 5 })
    ~submit:(fun ~fe:_ ~done_k ->
      incr inflight;
      if !inflight > !max_inflight then max_inflight := !inflight;
      Sim.Engine.after sim 1_000 (fun () ->
          decr inflight;
          incr completed;
          done_k ()));
  Sim.Engine.run ~until:100_000 sim;
  Alcotest.(check int) "bounded concurrency" 10 !max_inflight;
  (* 10 clients x (100 ms / 1 ms service) ~ 1000 completions *)
  Alcotest.(check bool) "throughput sustained" true (!completed > 900)

let test_driver_ycsb_both_systems () =
  (* End-to-end smoke of the Figure-9 machinery at a tiny scale: ALOHA
     throughput must exceed Calvin's and both must make progress.  Both
     go through the generic kernel loop via packed ENGINE modules. *)
  let point name clients =
    let engine = List.assoc name Harness.Setup.engines in
    let built =
      Harness.Setup.ycsb ~engine ~n:2 ~ci:0.01 ~keys_per_partition:1_000 ()
    in
    Harness.Setup.run built
      ~arrival:(Kernel.Arrivals.Closed { clients_per_fe = clients })
      ~warmup_us:50_000 ~measure_us:50_000 ()
  in
  let ra = point "aloha" 200 in
  let rc = point "calvin" 100 in
  Alcotest.(check bool) "aloha progresses" true (ra.Kernel.Result.committed > 100);
  Alcotest.(check bool) "calvin progresses" true (rc.Kernel.Result.committed > 50);
  Alcotest.(check bool) "aloha beats calvin" true
    (ra.Kernel.Result.throughput_tps > rc.Kernel.Result.throughput_tps);
  Alcotest.(check bool) "aloha stages recorded" true
    (List.length ra.Kernel.Result.stages = 3);
  Alcotest.(check bool) "latencies sane" true
    (ra.Kernel.Result.lat_mean_us > 0.0
     && ra.Kernel.Result.lat_p99_us >= ra.Kernel.Result.lat_p50_us)

(* The stage breakdown is simulated per-transaction time only: two runs
   of one seeded point must report it identically (host-timed series such
   as the planner's build time stay out of it). *)
let test_stage_stats_deterministic () =
  let engine = List.assoc "aloha" Harness.Setup.engines in
  let stages () =
    let built =
      Harness.Setup.ycsb ~engine ~n:2 ~ci:0.1 ~keys_per_partition:1_000
        ~seed:5 ()
    in
    let r =
      Harness.Setup.run built
        ~arrival:(Kernel.Arrivals.Open_poisson { rate_per_fe = 5_000.0 })
        ~warmup_us:30_000 ~measure_us:50_000 ()
    in
    List.map
      (fun (label, (st : Kernel.Result.stage_stat)) ->
        Printf.sprintf "%s mean=%.3f p50=%d p95=%d p99=%d p999=%d" label
          st.Kernel.Result.mean_us st.p50_us st.p95_us st.p99_us st.p999_us)
      r.Kernel.Result.stage_stats
  in
  let first = stages () in
  Alcotest.(check int) "three stages" 3 (List.length first);
  Alcotest.(check (list string)) "identical stage_stats" first (stages ())

let test_driver_tpcc_abort_accounting () =
  let engine = List.assoc "aloha" Harness.Setup.engines in
  let built =
    Harness.Setup.tpcc ~engine ~n:2 ~warehouses_per_host:1 ~kind:`NewOrder ()
  in
  let r =
    Harness.Setup.run built
      ~arrival:(Kernel.Arrivals.Closed { clients_per_fe = 100 })
      ~warmup_us:50_000 ~measure_us:100_000 ()
  in
  Alcotest.(check bool) "commits" true (r.Kernel.Result.committed > 100);
  (* 1 % of NewOrders reference an unknown item and must abort in the
     write-only phase. *)
  let aborted_install = Kernel.Result.abort r "install" in
  Alcotest.(check bool) "install aborts occur" true (aborted_install > 0);
  let ratio =
    float_of_int aborted_install
    /. float_of_int (r.Kernel.Result.committed + aborted_install)
  in
  Alcotest.(check bool) "abort rate ~1%" true (ratio > 0.001 && ratio < 0.05)

let test_scale_profiles_sane () =
  let q = Harness.Experiments.quick and f = Harness.Experiments.full in
  Alcotest.(check bool) "quick smaller" true
    (q.Harness.Experiments.measure_us <= f.Harness.Experiments.measure_us);
  Alcotest.(check bool) "full has the paper's server counts" true
    (List.mem 20 f.Harness.Experiments.fig8_servers);
  Alcotest.(check bool) "full sweeps the paper's CI range" true
    (List.mem 0.1 f.Harness.Experiments.fig9_cis
     && List.mem 1e-4 f.Harness.Experiments.fig9_cis)

(* Measurement records: write a few and parse them back with the
   ledger's JSON reader. *)

let read_records path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := Obs.Analyze.Json.parse (input_line ic) :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  List.rev !lines

let field path j =
  List.fold_left
    (fun j name ->
      match Option.bind j (Obs.Analyze.Json.member name) with
      | Some v -> Some v
      | None -> Alcotest.failf "missing field %s" (String.concat "." path))
    (Some j) path

let num path j =
  match field path j with
  | Some (Obs.Analyze.Json.Num f) -> f
  | _ -> Alcotest.failf "%s is not a number" (String.concat "." path)

let test_records_round_trip () =
  let awkward = "q\"uote \\back\x01ctl\ttab" in
  let values = [ 1e-7; 1e12; 0.1; 1. /. 3.; 2594.925; -0.0004; 42. ] in
  let metrics =
    List.mapi (fun i v -> (Printf.sprintf "m%d" i, (v, "ns"))) values
  in
  let path = Filename.temp_file "records" ".jsonl" in
  Harness.Report.write path
    [ { Harness.Report.suite = "micro"; labels = []; metrics; extra = [] };
      { Harness.Report.suite = "macro"; labels = [ ("series", awkward) ];
        metrics = [ ("tps", (5., "txn/sim_s")) ];
        extra = [ ("points", "[1,2]") ] } ];
  match read_records path with
  | [ micro; macro ] ->
      List.iteri
        (fun i v ->
          let name = Printf.sprintf "m%d" i in
          Alcotest.(check (float 0.)) name v (num [ "metrics"; name; "value" ] micro);
          Alcotest.(check string) (name ^ " unit") "ns"
            (Obs.Analyze.Json.to_str (field [ "metrics"; name; "unit" ] micro)))
        values;
      Alcotest.(check string) "label" awkward
        (Obs.Analyze.Json.to_str (field [ "labels"; "series" ] macro));
      Alcotest.(check bool) "extra field" true
        (field [ "points" ] macro
        = Some Obs.Analyze.Json.(Arr [ Num 1.; Num 2. ]));
      List.iter
        (fun r ->
          Alcotest.(check bool) "nproc" true (num [ "host"; "nproc" ] r >= 1.);
          Alcotest.(check string) "ocaml" Sys.ocaml_version
            (Obs.Analyze.Json.to_str (field [ "host"; "ocaml" ] r));
          Alcotest.(check bool) "commit" true
            (Obs.Analyze.Json.to_str (field [ "host"; "commit" ] r) <> ""))
        [ micro; macro ]
  | l -> Alcotest.failf "expected 2 records, read %d" (List.length l)

let test_records_reject_nan () =
  let path = Filename.temp_file "records" ".jsonl" in
  let nan_record =
    { Harness.Report.suite = "micro"; labels = [];
      metrics = [ ("ok", (1., "ns")); ("broken", (Float.nan, "ns")) ];
      extra = [] }
  in
  (match Harness.Report.write path [ nan_record ] with
  | () -> Alcotest.fail "a NaN metric was written"
  | exception Invalid_argument msg ->
      let mentions =
        List.exists
          (fun i -> String.sub msg i 6 = "broken")
          (List.init (max 0 (String.length msg - 5)) Fun.id)
      in
      Alcotest.(check bool) ("names the metric: " ^ msg) true mentions);
  Sys.remove path

let suite =
  [ Alcotest.test_case "records round-trip" `Quick test_records_round_trip;
    Alcotest.test_case "records reject NaN" `Quick test_records_reject_nan;
    Alcotest.test_case "poisson rate" `Quick test_poisson_rate;
    Alcotest.test_case "burst arrivals" `Quick
      test_burst_arrivals_cluster_at_period;
    Alcotest.test_case "closed loop" `Quick test_closed_loop_sustains;
    Alcotest.test_case "driver ycsb both systems" `Slow
      test_driver_ycsb_both_systems;
    Alcotest.test_case "stage stats deterministic" `Quick
      test_stage_stats_deterministic;
    Alcotest.test_case "driver tpcc aborts" `Slow
      test_driver_tpcc_abort_accounting;
    Alcotest.test_case "scale profiles" `Quick test_scale_profiles_sane ]
