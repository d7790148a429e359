(* Measurement records: one shape for every result the bench harness and
   the telemetry export write (see report.mli).  The console output of
   Experiments is meant for eyeballs; its row helpers also keep a record
   per figure point here, and bench/main.exe writes them all at exit. *)

type record = {
  suite : string;
  labels : (string * string) list;
  metrics : (string * (float * string)) list;
  extra : (string * string) list;
}

let kept : record list ref = ref []
let record r = kept := r :: !kept
let recorded () = List.rev !kept

(* ---- JSON emission (hand-rolled; no json dependency) -------------------- *)

let jstr s = Printf.sprintf "\"%s\"" (Obs.Export.jescape s)

(* The shortest of %.15g / %.17g that reads back as the same float. *)
let jfloat f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields)
  ^ "}"

let host =
  lazy
    (let commit =
       (* The shell prints the fallback, so a checkout without git takes
          the same path through this code as one with it. *)
       try
         let ic =
           Unix.open_process_in "git rev-parse HEAD 2>/dev/null || echo unknown"
         in
         let line = input_line ic in
         ignore (Unix.close_process_in ic);
         line
       with Unix.Unix_error _ | Sys_error _ | End_of_file -> "unknown"
     in
     jobj
       [ ("nproc", string_of_int (Domain.recommended_domain_count ()));
         ("ocaml", jstr Sys.ocaml_version);
         ("commit", jstr commit) ])

let line r =
  let metric (name, (value, unit)) =
    if not (Float.is_finite value) then
      invalid_arg
        (Printf.sprintf "Report.write: metric %S of suite %S is %g" name
           r.suite value);
    (name, jobj [ ("value", jfloat value); ("unit", jstr unit) ])
  in
  jobj
    ([ ("suite", jstr r.suite);
       ("labels", jobj (List.map (fun (k, v) -> (k, jstr v)) r.labels));
       ("metrics", jobj (List.map metric r.metrics)) ]
    @ r.extra
    @ [ ("host", Lazy.force host) ])

let write path records =
  let lines = List.map line records in
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

(* TIMELINE.jsonl is genuinely append-only: each run contributes one
   segment (meta line + rows), and Obs.Analyze splits segments back apart
   at the meta lines. *)
let write_timeline path lines =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines;
  close_out oc

(* ---- run telemetry ------------------------------------------------------- *)

(* One run's observability summary, flattened into metric names: headline
   result numbers, per-stage latency percentiles, final gauge values with
   sample counts, trace-ring occupancy, and fault-correlation counters.
   The Chrome trace carries the event-level detail. *)

let telemetry ~engine ~workload ~(result : Kernel.Result.t)
    ?(drops : Net.Network.drop_stats option) ?(ctl : Obs.Ctl.t option) () =
  let us v = (float_of_int v, "sim_us") and count v = (float_of_int v, "count") in
  let stage (name, (st : Kernel.Result.stage_stat)) =
    let m field v = (Printf.sprintf "stage.%s.%s" name field, v) in
    [ m "mean_us" (st.Kernel.Result.mean_us, "sim_us");
      m "p50_us" (us st.p50_us); m "p95_us" (us st.p95_us);
      m "p99_us" (us st.p99_us); m "p999_us" (us st.p999_us) ]
  in
  let gauge (name, samples) =
    let name =
      if String.starts_with ~prefix:"gauge." name then name
      else "gauge." ^ name
    in
    let last = match List.rev samples with [] -> 0.0 | (_, v) :: _ -> v in
    let hi = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 samples in
    [ (name ^ ".samples", count (List.length samples));
      (name ^ ".last", (last, "gauge")); (name ^ ".max", (hi, "gauge")) ]
  in
  let ctl_metrics =
    match ctl with
    | None -> []
    | Some ctl ->
        let tr = Obs.Ctl.trace ctl in
        List.concat_map gauge (Obs.Gauges.series (Obs.Ctl.gauges ctl))
        @ [ ("trace.sample_rate", count (Obs.Trace.sample_rate tr));
            ("trace.capacity", count (Obs.Trace.capacity tr));
            ("trace.events", count (Obs.Trace.length tr));
            ("trace.total", count (Obs.Trace.total tr));
            ("trace.dropped", count (Obs.Trace.dropped tr));
            ("trace.fault_drops", count (Obs.Ctl.fault_drops ctl));
            ("trace.fault_delays", count (Obs.Ctl.fault_delays ctl)) ]
  in
  let drop_metrics =
    match drops with
    | None -> []
    | Some d ->
        [ ("net_drops.injected", count d.Net.Network.injected);
          ("net_drops.partitioned", count d.partitioned);
          ("net_drops.crashed", count d.crashed);
          ("net_drops.unregistered", count d.unregistered) ]
  in
  { suite = "telemetry";
    labels = [ ("engine", engine); ("workload", workload) ];
    metrics =
      [ ("tps", (result.Kernel.Result.throughput_tps, "txn/sim_s"));
        ("committed", count result.committed);
        ("aborted", count (Kernel.Result.abort_count result));
        ("lat_mean_us", (result.lat_mean_us, "sim_us"));
        ("lat_p50_us", us result.lat_p50_us);
        ("lat_p95_us", us result.lat_p95_us);
        ("lat_p99_us", us result.lat_p99_us);
        ("lat_p999_us", us result.lat_p999_us) ]
      @ List.concat_map stage result.stage_stats
      @ ctl_metrics @ drop_metrics;
    extra = [] }
