type stage_stat = {
  mean_us : float;
  p50_us : int;
  p95_us : int;
  p99_us : int;
  p999_us : int;
}

type t = {
  committed : int;
  aborts : (string * int) list;
  counters : (string * int) list;
  throughput_tps : float;
  lat_mean_us : float;
  lat_p50_us : int;
  lat_p95_us : int;
  lat_p99_us : int;
  lat_p999_us : int;
  stages : (string * float) list;
  stage_stats : (string * stage_stat) list;
}

let abort_count r = List.fold_left (fun acc (_, n) -> acc + n) 0 r.aborts
let abort r label = try List.assoc label r.aborts with Not_found -> 0

let pp fmt r =
  Format.fprintf fmt
    "%.0f txn/s (n=%d, aborts=%d), lat mean=%.2f ms p50=%.2f p95=%.2f \
     p99=%.2f p999=%.2f"
    r.throughput_tps r.committed (abort_count r)
    (r.lat_mean_us /. 1000.0)
    (float_of_int r.lat_p50_us /. 1000.0)
    (float_of_int r.lat_p95_us /. 1000.0)
    (float_of_int r.lat_p99_us /. 1000.0)
    (float_of_int r.lat_p999_us /. 1000.0)

let empty_stat = { mean_us = 0.0; p50_us = 0; p95_us = 0; p99_us = 0;
                   p999_us = 0 }

let hist_stats metrics name =
  match Sim.Metrics.latency metrics name with
  | None -> empty_stat
  | Some h ->
      if Sim.Stats.Histogram.count h = 0 then empty_stat
      else
        { mean_us = Sim.Stats.Histogram.mean h;
          p50_us = Sim.Stats.Histogram.percentile h 50.0;
          p95_us = Sim.Stats.Histogram.percentile h 95.0;
          p99_us = Sim.Stats.Histogram.percentile h 99.0;
          p999_us = Sim.Stats.Histogram.percentile h 99.9 }

let extract ~metrics ~measure_us ~committed_key ~latency_key ~abort_keys
    ~counter_keys ~stage_keys =
  let committed = Sim.Metrics.get metrics committed_key in
  let lat = hist_stats metrics latency_key in
  (* Stages with no samples (e.g. the fast-lane commit stage without
     --fastpath) would show as 0 µs rows in every breakdown; drop them so
     the stage list reflects what the run actually exercised. *)
  let stage_stats =
    List.filter_map
      (fun (label, key) ->
        match Sim.Metrics.latency metrics key with
        | Some h when Sim.Stats.Histogram.count h > 0 ->
            Some (label, hist_stats metrics key)
        | _ -> None)
      stage_keys
  in
  { committed;
    aborts =
      List.map
        (fun (label, key) -> (label, Sim.Metrics.get metrics key))
        abort_keys;
    counters =
      List.map
        (fun (label, key) -> (label, Sim.Metrics.get metrics key))
        counter_keys;
    throughput_tps = float_of_int committed *. 1e6 /. float_of_int measure_us;
    lat_mean_us = lat.mean_us;
    lat_p50_us = lat.p50_us;
    lat_p95_us = lat.p95_us;
    lat_p99_us = lat.p99_us;
    lat_p999_us = lat.p999_us;
    stages = List.map (fun (label, s) -> (label, s.mean_us)) stage_stats;
    stage_stats }
