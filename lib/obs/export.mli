(** Exporters for recorded observability data.

    The Chrome trace_events format is the JSON array consumed by
    [chrome://tracing] and Perfetto ([ui.perfetto.dev]): each lifecycle
    event becomes an instant ("i") event, each sampled transaction a
    complete ("X") span from its first to its last stage, each gauge
    series a counter ("C") track, with one process per simulated node and
    one thread per transaction shard. *)

val jescape : string -> string
(** [s] escaped for a JSON string literal (quote, backslash, newline,
    tab, other control characters as [\u00XX]): the Chrome trace's and
    [Harness.Report]'s records' one escaper. *)

val write_chrome_trace :
  path:string -> ?engine:string -> trace:Trace.t -> gauges:Gauges.t -> unit ->
  unit
(** Write a full Chrome trace_events JSON document to [path].
    Transactions are folded onto 64 tid lanes (tid = txn mod 64). *)

type rollup_row = {
  epoch : int;
  assigned : int;        (** txns assigned to this epoch *)
  functor_writes : int;  (** functor install events observed *)
  batch_acks : int;
  close_ts : int;        (** sim time the epoch closed, -1 if unseen *)
}

val epoch_rollup : Trace.t -> rollup_row list
(** Aggregate per-epoch counts from the ring buffer, sorted by epoch.
    Only epochs that appear in at least one event are listed. *)

val pp_rollup : Format.formatter -> rollup_row list -> unit
(** Render the rollup as an aligned text table. *)
