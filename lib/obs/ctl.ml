type t = {
  trace : Trace.t;
  gauges : Gauges.t;
  ledger : Ledger.t option;
  mutable last_fault_us : int;
  mutable fault_drops : int;
  mutable fault_delays : int;
}

(* How long after an injected fault lifecycle events stay tagged. *)
let corr_window_us = 2_000

let create ?sample ?gauge_interval_us ?ledger () =
  { trace = Trace.create ?sample ();
    gauges = Gauges.create ?interval_us:gauge_interval_us ();
    ledger;
    last_fault_us = min_int;
    fault_drops = 0;
    fault_delays = 0 }

let trace t = t.trace
let gauges t = t.gauges
let ledger t = t.ledger

let fault_tag t ~now =
  (* [min_int] marks "no fault seen"; subtracting it from [now] would
     wrap around, so test it explicitly. *)
  if t.last_fault_us <> min_int && now - t.last_fault_us <= corr_window_us
  then 1
  else 0

let emit t ~txn ~stage ~node ~ts ?(arg = -1) () =
  if Trace.would_sample t.trace ~txn then
    Trace.emit t.trace ~txn ~stage ~node ~ts ~arg ~tag:(fault_tag t ~now:ts)

let note_fault t ~now ~node ~kind =
  t.last_fault_us <- now;
  let stage =
    match kind with
    | `Drop ->
        t.fault_drops <- t.fault_drops + 1;
        Trace.Fault_drop
    | `Delay ->
        t.fault_delays <- t.fault_delays + 1;
        Trace.Fault_delay
  in
  Trace.emit t.trace ~txn:(-1) ~stage ~node ~ts:now ~arg:(-1) ~tag:1

let fault_drops t = t.fault_drops
let fault_delays t = t.fault_delays

let arm t ~sim ~for_us = Gauges.arm t.gauges ~sim ~for_us

let measure_reset t =
  Trace.clear t.trace;
  Gauges.clear t.gauges;
  (match t.ledger with Some l -> Ledger.clear l | None -> ());
  t.last_fault_us <- min_int;
  t.fault_drops <- 0;
  t.fault_delays <- 0
