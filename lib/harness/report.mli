(* Measurement records.  Every result bench/main.exe and the CLI's
   telemetry export write is one JSON line of one shape, the bench/e2e
   shape:

     {"suite": S, "labels": {k: string},
      "metrics": {name: {"value": number, "unit": string}},
      "host": {"nproc": int, "ocaml": string, "commit": string}}

   ci/check_bench_regression.py checks that shape and each suite's
   predicates over its records. *)

type record = {
  suite : string;
  labels : (string * string) list;
  metrics : (string * (float * string)) list;
      (** metric name -> (value, unit); every value must be finite *)
  extra : (string * string) list;
      (** fields written verbatim beside [metrics] (each value is JSON
          text), e.g. the availability curve; usually [[]] *)
}

val record : record -> unit
(** Keep a record for {!recorded}.  The figure row helpers and
    bench/main.exe's targets call this unconditionally. *)

val recorded : unit -> record list
(** Every record kept so far, oldest first. *)

val write : string -> record list -> unit
(** Truncate [path] and write one JSON line per record, each with the
    host block added ([nproc] = recommended domain count, [ocaml] =
    [Sys.ocaml_version], [commit] = [git rev-parse HEAD] or
    ["unknown"]).  Floats are written so they read back exactly.
    Raises [Invalid_argument] naming the metric if a value is not
    finite; the file is not touched then. *)

val telemetry :
  engine:string ->
  workload:string ->
  result:Kernel.Result.t ->
  ?drops:Net.Network.drop_stats ->
  ?ctl:Obs.Ctl.t ->
  unit ->
  record
(** One run's observability summary as a [telemetry] record: headline
    result numbers ([tps], [committed], [aborted], [lat_*_us]), per-stage
    percentiles ([stage.<name>.p99_us], ...), gauge series summaries
    ([gauge.<name>.samples|last|max]), trace-ring stats ([trace.*], with
    [ctl]) and fault counters ([net_drops.*], with [drops]). *)

val write_timeline : string -> string list -> unit
(** Append JSONL lines (one epoch-ledger segment, from
    [Obs.Ledger.to_lines]) to a TIMELINE.jsonl file, creating it if
    absent.  Append-only on purpose: successive runs accumulate segments
    that [Obs.Analyze] separates at the meta lines.  Unconditional. *)
