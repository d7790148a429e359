(* Simulation kernel: heap, engine, worker pool, rng, zipf, stats, bits,
   metrics. *)

let test_heap_sorted () =
  let h : int Sim.Heap.t = Sim.Heap.create ~vacant:0 () in
  let rng = Sim.Rng.create 1 in
  let values = List.init 500 (fun _ -> Sim.Rng.int rng 1000) in
  List.iter (fun v -> Sim.Heap.add h ~priority:v v) values;
  let rec drain last acc =
    match Sim.Heap.pop h with
    | None -> List.rev acc
    | Some (p, v) ->
        Alcotest.(check bool) "non-decreasing" true (p >= last);
        Alcotest.(check int) "priority = value" p v;
        drain p (v :: acc)
  in
  let drained = drain min_int [] in
  Alcotest.(check int) "all popped" 500 (List.length drained);
  Alcotest.(check (list int)) "sorted multiset"
    (List.sort compare values) drained

let test_heap_fifo_ties () =
  let h : string Sim.Heap.t = Sim.Heap.create ~vacant:"" () in
  List.iter (fun s -> Sim.Heap.add h ~priority:7 s) [ "a"; "b"; "c"; "d" ];
  let order =
    List.init 4 (fun _ -> match Sim.Heap.pop h with
      | Some (_, v) -> v
      | None -> Alcotest.fail "heap empty")
  in
  Alcotest.(check (list string)) "FIFO among equal priorities"
    [ "a"; "b"; "c"; "d" ] order

let test_heap_interleaved () =
  let h : int Sim.Heap.t = Sim.Heap.create ~vacant:0 () in
  Sim.Heap.add h ~priority:5 5;
  Sim.Heap.add h ~priority:1 1;
  Alcotest.(check (option int)) "peek" (Some 1) (Sim.Heap.peek_priority h);
  (match Sim.Heap.pop h with
  | Some (1, 1) -> ()
  | _ -> Alcotest.fail "expected 1");
  Sim.Heap.add h ~priority:0 0;
  (match Sim.Heap.pop h with
  | Some (0, 0) -> ()
  | _ -> Alcotest.fail "expected 0");
  Alcotest.(check int) "one left" 1 (Sim.Heap.length h)

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~at:30 (fun () -> log := 30 :: !log);
  Sim.Engine.schedule e ~at:10 (fun () -> log := 10 :: !log);
  Sim.Engine.schedule e ~at:20 (fun () ->
      log := 20 :: !log;
      (* events scheduled during execution still honour time order *)
      Sim.Engine.schedule e ~at:25 (fun () -> log := 25 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "time order" [ 10; 20; 25; 30 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Sim.Engine.now e)

let test_engine_past_rejected () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~at:10 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument
        "Engine.schedule: at=5 is in the past (now=10)")
        (fun () -> Sim.Engine.schedule e ~at:5 (fun () -> ())));
  Sim.Engine.run e

let test_engine_horizon () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Sim.Engine.schedule e ~at:t (fun () -> fired := t :: !fired))
    [ 10; 20; 30; 40 ];
  Sim.Engine.run ~until:25 e;
  Alcotest.(check (list int)) "fired up to horizon" [ 10; 20 ] (List.rev !fired);
  Alcotest.(check int) "clock clamped to horizon" 25 (Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "resumes" [ 10; 20; 30; 40 ] (List.rev !fired)

let test_engine_stop () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Sim.Engine.schedule e ~at:i (fun () ->
        incr count;
        if !count = 3 then Sim.Engine.stop e)
  done;
  Sim.Engine.run e;
  Alcotest.(check int) "stopped after 3" 3 !count;
  Sim.Engine.run e;
  Alcotest.(check int) "resumed the rest" 10 !count

let test_pool_respects_width () =
  let e = Sim.Engine.create () in
  let p = Sim.Worker_pool.create e ~workers:2 in
  let finish = ref [] in
  for i = 1 to 4 do
    Sim.Worker_pool.submit p ~cost:10 (fun () ->
        finish := (i, Sim.Engine.now e) :: !finish)
  done;
  Alcotest.(check int) "two run, two queue" 2 (Sim.Worker_pool.queue_length p);
  Sim.Engine.run e;
  let times = List.rev_map snd !finish in
  Alcotest.(check (list int)) "two waves of two" [ 10; 10; 20; 20 ]
    (List.sort compare times);
  Alcotest.(check int) "busy time = 4 jobs x 10" 40
    (Sim.Worker_pool.busy_time p);
  Alcotest.(check int) "jobs completed" 4 (Sim.Worker_pool.jobs_completed p)

let test_rng_determinism () =
  let a = Sim.Rng.create 42 and b = Sim.Rng.create 42 in
  let xs = List.init 100 (fun _ -> Sim.Rng.int a 1_000_000) in
  let ys = List.init 100 (fun _ -> Sim.Rng.int b 1_000_000) in
  Alcotest.(check (list int)) "same seed same stream" xs ys

let test_rng_split_independent () =
  let a = Sim.Rng.create 42 in
  let child = Sim.Rng.split a in
  let xs = List.init 50 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Sim.Rng.int child 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_bounds () =
  let rng = Sim.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v;
    let u = Sim.Rng.uniform_int rng ~lo:(-5) ~hi:5 in
    if u < -5 || u > 5 then Alcotest.failf "uniform out of range: %d" u;
    let f = Sim.Rng.float rng 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_bernoulli_mean () =
  let rng = Sim.Rng.create 13 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Sim.Rng.bernoulli rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. 10_000.0 in
  Alcotest.(check bool) "within 3 sigma of 0.3" true (abs_float (p -. 0.3) < 0.015)

let test_zipf_popularity () =
  let z = Sim.Zipf.create ~n:1000 ~theta:0.99 in
  let rng = Sim.Rng.create 5 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 100_000 do
    let r = Sim.Zipf.sample z rng in
    if r < 0 || r >= 1000 then Alcotest.failf "rank out of range: %d" r;
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 0 much more popular than rank 500" true
    (counts.(0) > 10 * (counts.(500) + 1))

let test_stats_summary () =
  let s = Sim.Stats.Summary.create () in
  List.iter (Sim.Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Sim.Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "variance" 2.5 (Sim.Stats.Summary.variance s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Sim.Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Sim.Stats.Summary.max s);
  Alcotest.(check (float 1e-9)) "total" 15.0 (Sim.Stats.Summary.total s)

let test_stats_summary_merge () =
  let a = Sim.Stats.Summary.create () and b = Sim.Stats.Summary.create () in
  let whole = Sim.Stats.Summary.create () in
  let rng = Sim.Rng.create 3 in
  for i = 1 to 200 do
    let x = Sim.Rng.float rng 100.0 in
    Sim.Stats.Summary.add (if i mod 2 = 0 then a else b) x;
    Sim.Stats.Summary.add whole x
  done;
  let m = Sim.Stats.Summary.merge a b in
  Alcotest.(check (float 1e-6)) "merged mean"
    (Sim.Stats.Summary.mean whole) (Sim.Stats.Summary.mean m);
  Alcotest.(check (float 1e-4)) "merged variance"
    (Sim.Stats.Summary.variance whole) (Sim.Stats.Summary.variance m)

let test_histogram_percentiles () =
  let h = Sim.Stats.Histogram.create () in
  for i = 1 to 10_000 do
    Sim.Stats.Histogram.add h i
  done;
  let check_pct p expected =
    let v = Sim.Stats.Histogram.percentile h p in
    let err = abs_float (float_of_int v /. expected -. 1.0) in
    if err > 0.08 then
      Alcotest.failf "p%.0f: got %d, want ~%.0f (err %.3f)" p v expected err
  in
  check_pct 50.0 5000.0;
  check_pct 90.0 9000.0;
  check_pct 99.0 9900.0;
  Alcotest.(check int) "min exact" 1 (Sim.Stats.Histogram.min h);
  Alcotest.(check int) "max exact" 10_000 (Sim.Stats.Histogram.max h);
  Alcotest.(check (float 1.0)) "mean" 5000.5 (Sim.Stats.Histogram.mean h)

let test_histogram_empty_and_negative () =
  let h = Sim.Stats.Histogram.create () in
  Alcotest.(check int) "empty percentile" 0
    (Sim.Stats.Histogram.percentile h 99.0);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Histogram.add: negative sample") (fun () ->
      Sim.Stats.Histogram.add h (-1))

let test_histogram_percentile_edges () =
  (* Single sample: every percentile is that sample. *)
  let h = Sim.Stats.Histogram.create () in
  Sim.Stats.Histogram.add h 42;
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "single sample p%.1f" p)
        42
        (Sim.Stats.Histogram.percentile h p))
    [ 0.1; 50.0; 99.9; 100.0 ];
  (* All samples in one bucket: percentiles clamp to the recorded range. *)
  let h = Sim.Stats.Histogram.create () in
  for _ = 1 to 100 do
    Sim.Stats.Histogram.add h 1_000
  done;
  Alcotest.(check int) "same-bucket p50" 1_000
    (Sim.Stats.Histogram.percentile h 50.0);
  Alcotest.(check int) "same-bucket p100" 1_000
    (Sim.Stats.Histogram.percentile h 100.0);
  (* p=100 must equal the exact max even when the top bucket is shared. *)
  let h = Sim.Stats.Histogram.create () in
  for i = 1 to 1_000 do
    Sim.Stats.Histogram.add h i
  done;
  Alcotest.(check int) "p100 is max" 1_000
    (Sim.Stats.Histogram.percentile h 100.0);
  Alcotest.check_raises "p0 rejected"
    (Invalid_argument "Histogram.percentile") (fun () ->
      ignore (Sim.Stats.Histogram.percentile h 0.0));
  Alcotest.check_raises "p>100 rejected"
    (Invalid_argument "Histogram.percentile") (fun () ->
      ignore (Sim.Stats.Histogram.percentile h 100.5))

let test_metrics_gauges () =
  let m = Sim.Metrics.create () in
  Alcotest.(check (float 0.0)) "unset gauge" 0.0
    (Sim.Metrics.gauge_value m "g");
  Sim.Metrics.set_gauge m "g" 3.5;
  Sim.Metrics.set_gauge m "g" 4.5;
  Alcotest.(check (float 0.0)) "last write wins" 4.5
    (Sim.Metrics.gauge_value m "g");
  let h = Sim.Metrics.gauge m "g" in
  h := 9.0;
  Alcotest.(check (float 0.0)) "handle aliases table" 9.0
    (Sim.Metrics.gauge_value m "g");
  Sim.Metrics.set_gauge m "a" 1.0;
  Alcotest.(check bool) "sorted listing" true
    (Sim.Metrics.gauges m = [ ("a", 1.0); ("g", 9.0) ]);
  Sim.Metrics.reset m;
  Alcotest.(check (float 0.0)) "reset zeroes" 0.0
    (Sim.Metrics.gauge_value m "g");
  Alcotest.(check (float 0.0)) "handles survive reset" 0.0 !h;
  h := 2.0;
  Alcotest.(check (float 0.0)) "handle still live" 2.0
    (Sim.Metrics.gauge_value m "g")

let test_bits () =
  Alcotest.(check int) "clz 1" 62 (Sim.Bits.count_leading_zeros 1);
  Alcotest.(check int) "clz 0" 63 (Sim.Bits.count_leading_zeros 0);
  Alcotest.(check int) "clz near max" 1 (Sim.Bits.count_leading_zeros (1 lsl 61));
  List.iter
    (fun (v, want) ->
      Alcotest.(check int) (Printf.sprintf "ceil_pow2 %d" v) want
        (Sim.Bits.ceil_pow2 v))
    [ (1, 1); (2, 2); (3, 4); (4, 4); (5, 8); (1023, 1024); (1024, 1024) ]

let test_metrics () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.incr m "a";
  Sim.Metrics.add m "a" 4;
  Sim.Metrics.incr m "b";
  Alcotest.(check int) "a" 5 (Sim.Metrics.get m "a");
  Alcotest.(check int) "absent" 0 (Sim.Metrics.get m "zzz");
  Sim.Metrics.record_latency m "lat" 100;
  Sim.Metrics.record_latency m "lat" 300;
  (match Sim.Metrics.latency m "lat" with
  | Some h -> Alcotest.(check int) "count" 2 (Sim.Stats.Histogram.count h)
  | None -> Alcotest.fail "histogram missing");
  Sim.Metrics.reset m;
  Alcotest.(check int) "reset" 0 (Sim.Metrics.get m "a");
  (match Sim.Metrics.latency m "lat" with
  | Some h -> Alcotest.(check int) "hist reset" 0 (Sim.Stats.Histogram.count h)
  | None -> Alcotest.fail "histogram should survive reset")

(* qcheck: heap pops a sorted permutation of its input. *)
let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap pops sorted permutation" ~count:200
    QCheck2.Gen.(list_size (int_bound 200) (int_bound 10_000))
    (fun xs ->
      let h : int Sim.Heap.t = Sim.Heap.create ~vacant:0 () in
      List.iter (fun v -> Sim.Heap.add h ~priority:v v) xs;
      let rec drain acc =
        match Sim.Heap.pop h with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      drain [] = List.sort compare xs)

(* qcheck: histogram percentile within bucket resolution of exact. *)
let prop_histogram_accuracy =
  QCheck2.Test.make ~name:"histogram percentile ~ exact" ~count:100
    QCheck2.Gen.(list_size (int_range 1 500) (int_range 0 1_000_000))
    (fun xs ->
      let h = Sim.Stats.Histogram.create () in
      List.iter (Sim.Stats.Histogram.add h) xs;
      let sorted = Array.of_list (List.sort compare xs) in
      let n = Array.length sorted in
      List.for_all
        (fun p ->
          (* Same rank convention as the histogram: ceil(p% of count). *)
          let rank = ((n * p) + 99) / 100 in
          let exact = sorted.(Stdlib.max 0 (rank - 1)) in
          let approx = Sim.Stats.Histogram.percentile h (float_of_int p) in
          (* within one sub-bucket (1/16) or tiny absolute slack *)
          abs (approx - exact) <= (exact / 8) + 16)
        [ 50; 90; 99 ])

(* qcheck: a run of [count] jobs is [count] single submits.  A script is
   a tree of submissions: the top level is scheduled at small instants,
   and each submission's first completing job makes its children's
   submissions from inside that continuation.  Executing a script with
   runs and with every run expanded into single submits must give the
   same (completion time, job label) sequence, the same pool counters,
   and the same queue length at every sample.  A silent run (no
   callback, no children) expands into no-op single submits. *)
type sub = {
  delay : int;
  cost : int;
  run : int option;  (* [Some count]: one run; [None]: one submit *)
  silent : bool;  (* a [Some count] run without callbacks *)
  children : sub list;
}

let gen_script ~silent_runs =
  let open QCheck2.Gen in
  let rec sub depth =
    let* delay = int_range 0 4 in
    let* cost = int_range 0 5 in
    let* run = opt (int_range 0 6) in
    let* silent =
      if silent_runs && Option.is_some run then bool else return false
    in
    let+ children =
      if depth = 0 || silent then return []
      else list_size (int_range 0 2) (sub (depth - 1))
    in
    { delay; cost; run; silent; children }
  in
  pair (int_range 1 4) (list_size (int_range 1 6) (sub 2))

(* Returns the callback log, the queue lengths sampled inside events, the
   queue lengths of the grid samples at instants 0..40 (scheduled before
   the script, so each fires first at its instant), and the final busy
   time and completed-job count. *)
let exec_script ~expand (workers, script) =
  let e = Sim.Engine.create () in
  let p = Sim.Worker_pool.create e ~workers in
  let log = ref [] and samples = ref [] and grid = ref [] in
  let sample () = samples := Sim.Worker_pool.queue_length p :: !samples in
  let rec submit label s =
    let fire i =
      log := (Sim.Engine.now e, Printf.sprintf "%s.%d" label i) :: !log;
      sample ();
      if i = 0 then
        List.iteri (fun j c -> submit (Printf.sprintf "%s/%d" label j) c)
          s.children
    in
    (match s.run with
    | None -> Sim.Worker_pool.submit p ~cost:s.cost (fun () -> fire 0)
    | Some count when expand ->
        for i = 0 to count - 1 do
          Sim.Worker_pool.submit p ~cost:s.cost (fun () ->
              if not s.silent then fire i)
        done
    | Some count when s.silent ->
        Sim.Worker_pool.submit_silent p ~cost:s.cost ~count
    | Some count -> Sim.Worker_pool.submit_run p ~cost:s.cost ~count fire);
    sample ()
  in
  for at = 0 to 40 do
    Sim.Engine.schedule e ~at (fun () ->
        grid := Sim.Worker_pool.queue_length p :: !grid)
  done;
  List.iteri
    (fun j s ->
      Sim.Engine.schedule e ~at:s.delay (fun () -> submit (string_of_int j) s))
    script;
  Sim.Engine.run e;
  ( List.rev !log, List.rev !samples, List.rev !grid,
    Sim.Worker_pool.busy_time p, Sim.Worker_pool.jobs_completed p )

let prop_run_equals_submits =
  QCheck2.Test.make ~name:"worker-pool run = single submits" ~count:300
    (gen_script ~silent_runs:false) (fun script ->
      exec_script ~expand:false script = exec_script ~expand:true script)

(* Silent runs against no-op single submits: every callback job completes
   at the same instant (same-instant order may differ where a lane's end
   stands in for per-job completions), and the grid samples and final
   counters agree. *)
let prop_silent_equals_submits =
  QCheck2.Test.make ~name:"worker-pool silent run = no-op single submits"
    ~count:500 (gen_script ~silent_runs:true) (fun script ->
      let log1, _, grid1, busy1, done1 = exec_script ~expand:false script in
      let log2, _, grid2, busy2, done2 = exec_script ~expand:true script in
      List.sort compare log1 = List.sort compare log2
      && grid1 = grid2 && busy1 = busy2 && done1 = done2)

(* Mid-run reads of a silent run on an idle pool come from its lane
   schedule: 10 jobs of 5 us on 4 workers run as lanes of 3, 3, 2 and 2
   jobs, with one completion event per lane. *)
let test_silent_lanes () =
  let e = Sim.Engine.create () in
  let p = Sim.Worker_pool.create e ~workers:4 in
  let reads = ref [] in
  List.iter
    (fun at ->
      Sim.Engine.schedule e ~at (fun () ->
          reads :=
            ( at, Sim.Worker_pool.queue_length p,
              Sim.Worker_pool.jobs_completed p, Sim.Worker_pool.busy_time p,
              Sim.Worker_pool.busy_workers p )
            :: !reads))
    [ 1; 5; 6; 10; 11; 15; 16 ];
  Sim.Worker_pool.submit_silent p ~cost:5 ~count:10;
  Alcotest.(check int) "first round started" 6 (Sim.Worker_pool.queue_length p);
  Sim.Engine.run e;
  Alcotest.(check (list (list int)))
    "(at, queued, completed, busy_time, busy)"
    [ [ 1; 6; 0; 0; 4 ]; [ 5; 6; 0; 0; 4 ]; [ 6; 2; 4; 20; 4 ];
      [ 10; 2; 4; 20; 4 ]; [ 11; 0; 8; 40; 2 ]; [ 15; 0; 8; 40; 2 ];
      [ 16; 0; 10; 50; 0 ] ]
    (List.rev_map (fun (a, q, c, b, w) -> [ a; q; c; b; w ]) !reads);
  Alcotest.(check int) "7 reads + 4 lane completions" 11
    (Sim.Engine.events_fired e);
  (* a busy pool runs it job by job *)
  Sim.Worker_pool.submit p ~cost:3 ignore;
  Sim.Worker_pool.submit_silent p ~cost:1 ~count:6;
  let fired = Sim.Engine.events_fired e in
  Sim.Engine.run e;
  Alcotest.(check int) "one event per job" 7 (Sim.Engine.events_fired e - fired);
  Alcotest.(check int) "all completed" 17 (Sim.Worker_pool.jobs_completed p)

let suite =
  [ Alcotest.test_case "heap sorted drain" `Quick test_heap_sorted;
    Alcotest.test_case "heap fifo ties" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap interleaved" `Quick test_heap_interleaved;
    Alcotest.test_case "engine ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine rejects past" `Quick test_engine_past_rejected;
    Alcotest.test_case "engine horizon+resume" `Quick test_engine_horizon;
    Alcotest.test_case "engine stop/resume" `Quick test_engine_stop;
    Alcotest.test_case "pool width" `Quick test_pool_respects_width;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng bernoulli" `Quick test_rng_bernoulli_mean;
    Alcotest.test_case "zipf popularity" `Quick test_zipf_popularity;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "stats merge" `Quick test_stats_summary_merge;
    Alcotest.test_case "histogram percentiles" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "histogram edge cases" `Quick
      test_histogram_empty_and_negative;
    Alcotest.test_case "histogram percentile edges" `Quick
      test_histogram_percentile_edges;
    Alcotest.test_case "metrics gauges" `Quick test_metrics_gauges;
    Alcotest.test_case "bits" `Quick test_bits;
    Alcotest.test_case "metrics" `Quick test_metrics;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    Alcotest.test_case "pool silent lanes" `Quick test_silent_lanes;
    QCheck_alcotest.to_alcotest prop_run_equals_submits;
    QCheck_alcotest.to_alcotest prop_silent_equals_submits;
    QCheck_alcotest.to_alcotest prop_histogram_accuracy ]
