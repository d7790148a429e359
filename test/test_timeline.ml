(* Epoch-ledger timeline: the Ledger accumulator, its JSONL rendering,
   the Analyze parser/incident reconstruction/doctor invariants, the
   append-only TIMELINE.jsonl writer, and — end to end — that a k=2 chaos
   run with backend crashes yields a timeline from which the doctor
   reconstructs resolved failover incidents.  Plus the load-bearing
   default: attaching a ledger must not change simulated behaviour. *)

let aloha =
  match Chaos.Driver.target_of_name "aloha" with
  | Some t -> t
  | None -> assert false

(* ---- hand-rolled JSON parser -------------------------------------------- *)

let test_json_parser () =
  let open Obs.Analyze.Json in
  (match parse "{\"a\":1,\"b\":[true,null,\"x\\n\"],\"c\":-2.5}" with
  | Obj fields ->
      Alcotest.(check int) "int member" 1 (to_int (member "a" (Obj fields)));
      (match member "b" (Obj fields) with
      | Some (Arr [ Bool true; Null; Str s ]) ->
          Alcotest.(check string) "escape decoded" "x\n" s
      | _ -> Alcotest.fail "array member shape");
      (match member "c" (Obj fields) with
      | Some (Num f) -> Alcotest.(check (float 1e-9)) "negative float" (-2.5) f
      | _ -> Alcotest.fail "number member")
  | _ -> Alcotest.fail "expected object");
  (match parse "{} x" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "trailing garbage accepted");
  Alcotest.(check bool) "missing member is None" true
    (member "zz" (parse "{}") = None)

(* ---- ledger -> lines -> segments roundtrip ------------------------------ *)

let test_ledger_roundtrip () =
  let l = Obs.Ledger.create () in
  Obs.Ledger.set_meta l ~cfg_epoch_us:10_000 ~nodes:2 ~replicas:2;
  Obs.Ledger.note_open l ~node:0 ~epoch:1 ~t_us:0;
  Obs.Ledger.note_assigned l ~node:0 ~epoch:1;
  Obs.Ledger.note_assigned l ~node:0 ~epoch:1;
  Obs.Ledger.note_fast_commit l ~node:0 ~epoch:1;
  Obs.Ledger.note_ship_lag l ~node:0 ~epoch:1 ~partition:0 ~lag_us:120;
  Obs.Ledger.note_ship_lag l ~node:0 ~epoch:1 ~partition:0 ~lag_us:80;
  Obs.Ledger.note_ship_lag l ~node:0 ~epoch:1 ~partition:0 ~lag_us:200;
  Obs.Ledger.note_gate_wait l ~node:0 ~epoch:1 ~partition:0 ~wait_us:45;
  Obs.Ledger.note_group l ~node:0 ~epoch:1 ~partition:0 ~ack_floor:7
    ~live_followers:1 ~degraded:false;
  Obs.Ledger.note_plan l ~node:0 ~epoch:1 ~nodes:4 ~edges:3 ~strata:2;
  Obs.Ledger.note_close l ~node:0 ~epoch:1 ~t_us:11_000 ~watermark:42
    ~watermark_lag_us:500;
  (* Crash -> detect -> promote -> first commit on the watched partition. *)
  Obs.Ledger.note_event l ~kind:Obs.Ledger.Crash ~node:1 ~t_us:2_000 ();
  Obs.Ledger.note_event l ~kind:Obs.Ledger.Detect ~node:1 ~t_us:5_000 ();
  Obs.Ledger.note_event l ~kind:Obs.Ledger.Promote ~node:0 ~t_us:5_100
    ~partition:1 ();
  Alcotest.(check bool) "promotion opens the watch" true
    (Obs.Ledger.awaiting_first_commit l);
  Obs.Ledger.note_commit l ~node:0 ~t_us:6_400 ~partitions:[ 0; 1 ];
  Alcotest.(check bool) "first commit closes the watch" false
    (Obs.Ledger.awaiting_first_commit l);
  (* A second commit must not emit another first_commit. *)
  Obs.Ledger.note_commit l ~node:0 ~t_us:7_000 ~partitions:[ 1 ];
  let lines = Obs.Ledger.to_lines l in
  match Obs.Analyze.parse_lines lines with
  | [ seg ] -> (
      Alcotest.(check int) "cfg epoch" 10_000 seg.Obs.Analyze.cfg_epoch_us;
      Alcotest.(check int) "replicas" 2 seg.Obs.Analyze.replicas;
      (match seg.Obs.Analyze.rows with
      | [ r ] ->
          Alcotest.(check int) "epoch" 1 r.Obs.Analyze.epoch;
          Alcotest.(check int) "assigned" 2 r.Obs.Analyze.assigned;
          Alcotest.(check int) "fast commits" 1 r.Obs.Analyze.fast_commits;
          Alcotest.(check int) "watermark" 42 r.Obs.Analyze.watermark;
          (* (11000 - 0) / 10000 in thousandths *)
          Alcotest.(check int) "stretch" 1_100 r.Obs.Analyze.stretch_millis;
          Alcotest.(check bool) "not degraded" false r.Obs.Analyze.degraded
      | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows));
      Alcotest.(check int) "events survive the roundtrip" 4
        (List.length seg.Obs.Analyze.events);
      (match Obs.Analyze.incidents seg with
      | [ i ] ->
          Alcotest.(check int) "crashed node" 1 i.Obs.Analyze.crashed_node;
          Alcotest.(check int) "promoted node" 0 i.Obs.Analyze.promoted_node;
          Alcotest.(check int) "detect latency" 3_000
            (i.Obs.Analyze.detect_us - i.Obs.Analyze.crash_us);
          Alcotest.(check int) "promote latency" 100
            (i.Obs.Analyze.promote_us - i.Obs.Analyze.detect_us);
          Alcotest.(check int) "recover latency" 1_300
            (i.Obs.Analyze.first_commit_us - i.Obs.Analyze.promote_us);
          Alcotest.(check bool) "resolved" true (Obs.Analyze.resolved i)
      | is -> Alcotest.failf "expected 1 incident, got %d" (List.length is));
      Alcotest.(check (list string)) "doctor clean" []
        (Obs.Analyze.check seg);
      (* Nearest-rank quantiles of the three ship lags [80;120;200]:
         p50 -> index 1 (120), p99 -> index 2 (200). *)
      let joined = String.concat "\n" lines in
      let has needle =
        let nl = String.length needle and jl = String.length joined in
        let rec go i =
          i + nl <= jl && (String.sub joined i nl = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "ship p50" true (has "\"ship_p50_us\":120");
      Alcotest.(check bool) "ship p99" true (has "\"ship_p99_us\":200");
      Alcotest.(check bool) "gate wait" true (has "\"gate_wait_us\":45");
      Alcotest.(check bool) "plan row" true (has "\"strata\":2"))
  | segs -> Alcotest.failf "expected 1 segment, got %d" (List.length segs)

(* ---- fabricated violations --------------------------------------------- *)

let fabricated ~watermark2 =
  [ "{\"type\":\"meta\",\"cfg_epoch_us\":10000,\"nodes\":1,\"replicas\":1}";
    "{\"type\":\"epoch\",\"epoch\":1,\"node\":0,\"open_us\":0,\
     \"close_us\":10000,\"wall_open_us\":0,\"wall_close_us\":0,\
     \"stretch_millis\":1000,\"assigned\":3,\"fast_commits\":0,\
     \"fast_merges\":0,\"watermark\":500,\"watermark_lag_us\":0}";
    Printf.sprintf
      "{\"type\":\"epoch\",\"epoch\":2,\"node\":0,\"open_us\":10000,\
       \"close_us\":20000,\"wall_open_us\":0,\"wall_close_us\":0,\
       \"stretch_millis\":1000,\"assigned\":3,\"fast_commits\":0,\
       \"fast_merges\":0,\"watermark\":%d,\"watermark_lag_us\":0}"
      watermark2 ]

let test_doctor_violations () =
  (* Non-monotone watermark with no crash: the doctor must object... *)
  (match Obs.Analyze.parse_lines (fabricated ~watermark2:100) with
  | [ seg ] -> (
      match Obs.Analyze.check seg with
      | [ v ] ->
          Alcotest.(check bool) "names the regression" true
            (String.length v > 0)
      | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs))
  | _ -> Alcotest.fail "segment shape");
  (* ...and stay quiet when it is monotone. *)
  (match Obs.Analyze.parse_lines (fabricated ~watermark2:900) with
  | [ seg ] ->
      Alcotest.(check (list string)) "monotone is clean" []
        (Obs.Analyze.check seg)
  | _ -> Alcotest.fail "segment shape");
  (* A crash between the closes excuses the reset. *)
  match
    Obs.Analyze.parse_lines
      (fabricated ~watermark2:100
      @ [ "{\"type\":\"event\",\"kind\":\"crash\",\"node\":0,\
           \"t_us\":15000,\"partition\":-1}";
          "{\"type\":\"event\",\"kind\":\"restart\",\"node\":0,\
           \"t_us\":16000,\"partition\":-1}" ])
  with
  | [ seg ] ->
      Alcotest.(check (list string)) "crash excuses the reset" []
        (Obs.Analyze.check seg)
  | _ -> Alcotest.fail "segment shape"

(* ---- append-only file writer -------------------------------------------- *)

let test_append_only_file () =
  let path = Filename.temp_file "timeline" ".jsonl" in
  Sys.remove path;
  Harness.Report.write_timeline path (fabricated ~watermark2:900);
  Harness.Report.write_timeline path (fabricated ~watermark2:900);
  let segs = Obs.Analyze.load path in
  Sys.remove path;
  Alcotest.(check int) "two appends, two segments" 2 (List.length segs);
  List.iter
    (fun seg ->
      Alcotest.(check int) "rows per segment" 2
        (List.length seg.Obs.Analyze.rows))
    segs

(* ---- end to end: k=2 chaos run with failover ---------------------------- *)

let test_chaos_timeline () =
  let ledger = Obs.Ledger.create () in
  let obs = Obs.Ctl.create ~ledger () in
  (* Seed 2's replicated battery leaves at least one backend down past the
     3ms detection verdict, so the timeline holds real failovers. *)
  let r = Chaos.Driver.run_seed ~replicas:2 ~obs aloha ~seed:2 ~n_servers:3 in
  Alcotest.(check (list string)) "chaos invariants hold" []
    r.Chaos.Driver.violations;
  Alcotest.(check bool) "timeline non-empty" true
    (List.length r.Chaos.Driver.timeline > 10);
  match Obs.Analyze.parse_lines r.Chaos.Driver.timeline with
  | [ seg ] ->
      Alcotest.(check int) "replicas stamped" 2 seg.Obs.Analyze.replicas;
      Alcotest.(check bool) "epoch rows recorded" true
        (List.length seg.Obs.Analyze.rows > 10);
      Alcotest.(check bool) "crash events recorded" true
        (List.exists
           (fun e -> e.Obs.Analyze.kind = "crash")
           seg.Obs.Analyze.events);
      let incidents = Obs.Analyze.incidents seg in
      Alcotest.(check bool) "at least one failover incident" true
        (incidents <> []);
      let complete =
        List.filter
          (fun i ->
            Obs.Analyze.resolved i
            && i.Obs.Analyze.crash_us >= 0
            && i.Obs.Analyze.detect_us >= i.Obs.Analyze.crash_us
            && i.Obs.Analyze.promote_us >= i.Obs.Analyze.detect_us
            && i.Obs.Analyze.first_commit_us >= i.Obs.Analyze.promote_us)
          incidents
      in
      Alcotest.(check bool)
        "a resolved incident carries all three phase latencies" true
        (complete <> []);
      Alcotest.(check (list string)) "doctor passes the real run" []
        (Obs.Analyze.check seg)
  | segs -> Alcotest.failf "expected 1 segment, got %d" (List.length segs)

(* ---- ledger off by default is behaviour-identical ----------------------- *)

let test_ledger_neutral () =
  let point obs =
    let engine = List.assoc "aloha" Harness.Setup.engines in
    let built =
      Harness.Setup.ycsb ~engine ~n:2 ~ci:0.01 ~keys_per_partition:1_000
        ?obs ~seed:31 ()
    in
    Harness.Setup.run built
      ~arrival:(Kernel.Arrivals.Closed { clients_per_fe = 100 })
      ?obs ~warmup_us:30_000 ~measure_us:40_000 ~seed:31 ()
  in
  let bare = point None in
  let ledger = Obs.Ledger.create () in
  let ctl = Obs.Ctl.create ~ledger () in
  let with_ledger = point (Some ctl) in
  Alcotest.(check int) "identical commits" bare.Kernel.Result.committed
    with_ledger.Kernel.Result.committed;
  Alcotest.(check (float 1e-9)) "identical tps"
    bare.Kernel.Result.throughput_tps
    with_ledger.Kernel.Result.throughput_tps;
  Alcotest.(check (float 1e-9)) "identical mean latency"
    bare.Kernel.Result.lat_mean_us with_ledger.Kernel.Result.lat_mean_us;
  (* And the ledger actually accumulated epoch rows. *)
  Alcotest.(check bool) "ledger recorded rows" true
    (Obs.Ledger.rows ledger <> [])

let suite =
  [ Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "ledger roundtrip" `Quick test_ledger_roundtrip;
    Alcotest.test_case "doctor violations" `Quick test_doctor_violations;
    Alcotest.test_case "append-only file" `Quick test_append_only_file;
    Alcotest.test_case "chaos run yields resolved incidents" `Quick
      test_chaos_timeline;
    Alcotest.test_case "ledger is behaviour-neutral" `Quick
      test_ledger_neutral ]
