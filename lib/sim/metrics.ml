(* Domain discipline (--runtime real): none of this is synchronized —
   counters are plain [int ref]s behind string-keyed hashtables, and
   both sides (table resize on first touch, unguarded increments) would
   race under concurrent domains.  Rather than pay atomics on every
   simulated event, the real runtime keeps ALL metric mutation on the
   orchestrating domain: worker domains carry their per-item tallies in
   the plan's per-node slots ([Compute_engine.par_slot]) and the
   orchestrator merges them into these counters after each batch
   barrier ([par_commit]) — the domain-local-shards-merged-at-epoch-close
   variant with the shard inlined into the work item.  Resolve handles
   ([counter]/[histogram]) and call every recording function
   from the simulation's domain only. *)
type t = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, Stats.Histogram.t) Hashtbl.t;
  gauge_tbl : (string, float ref) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 64;
    histograms = Hashtbl.create 16;
    gauge_tbl = Hashtbl.create 16 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr t name = Stdlib.incr (counter t name)

let get t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h = Stats.Histogram.create () in
      Hashtbl.add t.histograms name h;
      h

let record_latency t name v = Stats.Histogram.add (histogram t name) v

let latency t name = Hashtbl.find_opt t.histograms name

let gauge t name =
  match Hashtbl.find_opt t.gauge_tbl name with
  | Some r -> r
  | None ->
      let r = ref 0.0 in
      Hashtbl.add t.gauge_tbl name r;
      r

let set_gauge t name v = gauge t name := v

let gauges t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.gauge_tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  Hashtbl.iter (fun _ r -> r := 0) t.counters;
  Hashtbl.iter (fun _ h -> Stats.Histogram.clear h) t.histograms;
  Hashtbl.iter (fun _ r -> r := 0.0) t.gauge_tbl
