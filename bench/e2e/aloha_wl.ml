(* The four workloads that drive a whole ALOHA cluster through the
   public kernel surface: Kernel.Intf.ENGINE create/register/load/start
   and submit, Kernel.Run.run, and the Workload generators. *)

module E = Alohadb.Engine
module Txn = Kernel.Txn
module Value = Functor_cc.Value
module Stpcc = Workload.Scaled_tpcc

type kind =
  | Ycsb of { ci : float; keys_per_partition : int }
  | Stpcc of { districts_per_host : int }

type spec = {
  kind : kind;
  arrival : Kernel.Arrivals.t;
  fastpath : bool;
  replicas : int;
  warmup_us : int;
  measure_us : int;
}

let n_servers = 8
let epoch_us = 25_000
let drain_epochs = 8

(* ---- oracles -------------------------------------------------------------- *)

(* Committed state a key must hold after the drain: the whole value
   ([None]) or one tuple field must read as the given int. *)
type expect = { key : string; fields : (int option * int) list }

(* Tallies committed effects from replies.  [on_reply] answers whether
   the outcome was the expected one. *)
type tally = {
  on_reply : Txn.t -> Txn.reply -> bool;
  expects : unit -> expect list;
}

let ycsb_tally () =
  let adds : (string, int ref) Hashtbl.t = Hashtbl.create 65_536 in
  let on_reply txn = function
    | Txn.Ok ->
        List.iter
          (fun (key, op) ->
            match op with
            | Txn.Add d -> (
                match Hashtbl.find_opt adds key with
                | Some r -> r := !r + d
                | None -> Hashtbl.add adds key (ref d))
            | _ -> ())
          (Txn.functor_form txn).Txn.writes;
        true
    | Txn.Aborted _ -> false
  in
  let expects () =
    Hashtbl.fold (fun key r acc -> { key; fields = [ (None, !r) ] } :: acc) adds []
  in
  { on_reply; expects }

(* NewOrder: the district counter advances once per committed order, and
   each stock row's ytd/cnt fields sum the order's lines.  An order with
   an invalid item must abort (its stock key does not exist); every other
   order must commit. *)
let stpcc_tally (cfg : Stpcc.cfg) =
  let orders = Array.make cfg.districts 0 in
  let ytd = Array.make cfg.items 0 and cnt = Array.make cfg.items 0 in
  let item_of_stock = Hashtbl.create cfg.items in
  for i = 0 to cfg.items - 1 do
    Hashtbl.add item_of_stock (Stpcc.stock_key i) i
  done;
  let on_reply txn reply =
    let writes = (Txn.functor_form txn).Txn.writes in
    let lines =
      List.filter_map
        (fun (key, op) ->
          match op with
          | Txn.Call { handler = "stpcc_stock"; args = [ qty ]; _ } ->
              Some (Hashtbl.find_opt item_of_stock key, Value.to_int qty)
          | _ -> None)
        writes
    in
    let valid = List.for_all (fun (item, _) -> item <> None) lines in
    match reply with
    | Txn.Ok when valid ->
        List.iter
          (fun (_, op) ->
            match op with
            | Txn.Det { args = d :: _; _ } ->
                let d = Value.to_int d in
                orders.(d) <- orders.(d) + 1
            | _ -> ())
          writes;
        List.iter
          (fun (item, qty) ->
            let i = Option.get item in
            ytd.(i) <- ytd.(i) + qty;
            cnt.(i) <- cnt.(i) + 1)
          lines;
        true
    | Txn.Ok -> false
    | Txn.Aborted _ -> not valid
  in
  let expects () =
    List.init cfg.districts (fun d ->
        { key = Stpcc.dnoid_key d; fields = [ (None, 1 + orders.(d)) ] })
    @ List.init cfg.items (fun i ->
          { key = Stpcc.stock_key i; fields = [ (Some 1, ytd.(i)); (Some 2, cnt.(i)) ] })
  in
  { on_reply; expects }

let check ~read expects =
  List.filter_map
    (fun { key; fields } ->
      let v = read key in
      let field = function
        | None -> v
        | Some i -> (
            match v with
            | Some (Value.Tup l) when i < List.length l -> Some (List.nth l i)
            | _ -> None)
      in
      List.find_map
        (fun (f, want) ->
          match field f with
          | Some (Value.Int got) when got = want -> None
          | got ->
              Some
                (Printf.sprintf "%s%s: expected %d, read %s" key
                   (match f with None -> "" | Some i -> Printf.sprintf "[%d]" i)
                   want
                   (match got with Some v -> Value.to_string v | None -> "nothing")))
        fields)
    expects

(* The same expectations with the first expected number off by one: the
   oracle must reject it. *)
let corrupt = function
  | { key; fields = (f, want) :: rest } :: others ->
      { key; fields = (f, want + 1) :: rest } :: others
  | expects -> expects

(* ---- one repetition ------------------------------------------------------- *)

(* Outside timers and counters around the calls into each layer; only
   traced repetitions pay for them. *)
type probe = {
  mutable gen_ns : int;
  mutable gen_calls : int;
  mutable submit_ns : int;
  mutable handler_ns : int;
  mutable handler_calls : int;
  mutable msgs : int;
}

(* Client-side bookkeeping of one repetition. *)
type client = {
  mutable stopped : bool;
  mutable submitted : int;
  mutable replied : int;
  mutable committed : int;
  mutable unexpected : int;
  mutable m_ok : int;
  mutable m_aborted : int;
  mutable lat_us : int list;
}

let sum_servers c f =
  let n = ref 0 in
  for i = 0 to E.n_servers c - 1 do
    n := !n + f (Alohadb.Cluster.server c i)
  done;
  !n

let busy_us c = sum_servers c (fun s -> Sim.Worker_pool.busy_time (Alohadb.Server.pool s))
let cores c = sum_servers c (fun s -> Sim.Worker_pool.workers (Alohadb.Server.pool s))

let hist_ms metrics name p =
  match Sim.Metrics.latency metrics name with
  | Some h when Sim.Stats.Histogram.count h > 0 ->
      float_of_int (Sim.Stats.Histogram.percentile h p) /. 1000.
  | Some _ | None -> 0.

let hist_mean metrics name =
  match Sim.Metrics.latency metrics name with
  | Some h -> Sim.Stats.Histogram.mean h
  | None -> 0.

(* [corrupt_oracle] feeds the oracle a wrong expectation (smoke test of
   the oracle itself); its failures are then the expected result. *)
let run_rep ?(corrupt_oracle = false) spec ~seed ~traced ~replicas () =
  let probe =
    { gen_ns = 0; gen_calls = 0; submit_ns = 0; handler_ns = 0;
      handler_calls = 0; msgs = 0 }
  in
  let ledger = if traced then Some (Obs.Ledger.create ()) else None in
  (* Gauges sample once per epoch: their probes scan every key of a
     partition, and the ledger's granularity is the epoch anyway. *)
  let obs =
    Option.map
      (fun ledger ->
        Obs.Ctl.create ~sample:16 ~gauge_interval_us:epoch_us ~ledger ())
      ledger
  in
  let params =
    Kernel.Params.make ~epoch_us ?obs ~compute:"planned" ~runtime:"sim"
      ~replicas ~fastpath:spec.fastpath ~n_servers ()
  in
  let t_setup = Probe.now_ns () in
  let c = E.create ~seed params in
  let register name h =
    if not traced then E.register c name h
    else
      E.register c name (fun ctx ->
          let t0 = Probe.now_ns () in
          let outcome = h ctx in
          probe.handler_ns <- probe.handler_ns + (Probe.now_ns () - t0);
          probe.handler_calls <- probe.handler_calls + 1;
          outcome)
  in
  let gen, tally =
    match spec.kind with
    | Ycsb { ci; keys_per_partition } ->
        let cfg = Workload.Ycsb.cfg_of_contention_index ~keys_per_partition ci in
        Workload.Ycsb.register ~register;
        Workload.Ycsb.load cfg ~n_servers ~put:(E.load c);
        let g = Workload.Ycsb.generator cfg ~n_partitions:n_servers ~seed:(seed + 1) in
        ((fun ~fe -> Workload.Ycsb.gen g ~fe), ycsb_tally ())
    | Stpcc { districts_per_host } ->
        let cfg = Stpcc.default_cfg ~n_servers ~districts_per_host in
        Stpcc.register ~register;
        Stpcc.load cfg ~put:(E.load c);
        let g = Stpcc.generator cfg ~seed:(seed + 1) in
        ((fun ~fe:_ -> Stpcc.gen_neworder g), stpcc_tally cfg)
  in
  E.start c;
  let setup_s = Probe.seconds (Probe.now_ns () - t_setup) in
  let gen =
    if not traced then gen
    else fun ~fe ->
      let t0 = Probe.now_ns () in
      let txn = gen ~fe in
      probe.gen_ns <- probe.gen_ns + (Probe.now_ns () - t0);
      probe.gen_calls <- probe.gen_calls + 1;
      txn
  in
  if traced then E.set_trace c (fun ~src:_ ~dst:_ -> probe.msgs <- probe.msgs + 1);
  let des = E.sim c in
  let measure_from = Sim.Engine.now des + spec.warmup_us in
  let measure_to = measure_from + spec.measure_us in
  let st =
    { stopped = false; submitted = 0; replied = 0; committed = 0;
      unexpected = 0; m_ok = 0; m_aborted = 0; lat_us = [] }
  in
  let busy0 = ref 0 and msgs0 = ref 0 in
  Sim.Engine.schedule des ~at:measure_from (fun () ->
      busy0 := busy_us c;
      msgs0 := probe.msgs);
  let module Client = struct
    include E

    let submit c ~fe txn ~k =
      if not st.stopped then begin
        st.submitted <- st.submitted + 1;
        let t_sub = Sim.Engine.now des in
        let k reply =
          st.replied <- st.replied + 1;
          if reply = Txn.Ok then st.committed <- st.committed + 1;
          if not (tally.on_reply txn reply) then
            st.unexpected <- st.unexpected + 1;
          let t = Sim.Engine.now des in
          if t >= measure_from && t <= measure_to then begin
            match reply with
            | Txn.Ok ->
                st.m_ok <- st.m_ok + 1;
                st.lat_us <- (t - t_sub) :: st.lat_us
            | Txn.Aborted _ -> st.m_aborted <- st.m_aborted + 1
          end;
          k reply
        in
        if not traced then E.submit c ~fe txn ~k
        else begin
          let t0 = Probe.now_ns () in
          E.submit c ~fe txn ~k;
          probe.submit_ns <- probe.submit_ns + (Probe.now_ns () - t0)
        end
      end
  end in
  let gc0 = Probe.gc_now () in
  let events0 = Sim.Engine.events_fired des in
  let t_run = Probe.now_ns () in
  let result =
    Kernel.Run.run
      (module Client : Kernel.Intf.ENGINE with type cluster = E.cluster)
      ~cluster:c ~gen ~arrival:spec.arrival ?obs ~warmup_us:spec.warmup_us
      ~measure_us:spec.measure_us ~seed:(seed + 2) ()
  in
  let wall_ns = Probe.now_ns () - t_run in
  let gc = Probe.gc_since gc0 in
  let events = Sim.Engine.events_fired des - events0 in
  let committed_run = st.committed and replies_run = st.replied in
  let submitted_run = st.submitted in
  let metrics = E.metrics c in
  let count name = Sim.Metrics.get metrics name in
  let m_replies = st.m_ok + st.m_aborted in
  let per_txn n = Probe.per n m_replies in
  let busy = busy_us c - !busy0 and msgs = probe.msgs - !msgs0 in
  let lats = Array.of_list (List.map float_of_int st.lat_us) in
  Array.sort Float.compare lats;
  (* Epochs opened and closed inside the measurement window. *)
  let epoch_rows =
    match ledger with
    | None -> []
    | Some l ->
        List.filter
          (fun r -> r.Obs.Ledger.r_open_us >= 0 && r.Obs.Ledger.r_close_us >= 0)
          (Obs.Ledger.rows l)
  in
  let epoch_host_ms =
    List.map
      (fun r ->
        float_of_int (r.Obs.Ledger.r_wall_close_us - r.Obs.Ledger.r_wall_open_us)
        /. 1000.)
      epoch_rows
  in
  let stretch =
    List.map
      (fun r ->
        float_of_int (r.Obs.Ledger.r_close_us - r.Obs.Ledger.r_open_us)
        /. float_of_int epoch_us)
      epoch_rows
  in
  (* Drain: no new submissions, let every in-flight transaction finish. *)
  st.stopped <- true;
  Sim.Engine.run ~until:(Sim.Engine.now des + (drain_epochs * epoch_us)) des;
  let drops =
    let d = E.drop_stats c in
    d.Net.Network.injected + d.partitioned + d.crashed + d.unregistered
  in
  let expects = tally.expects () in
  let expects = if corrupt_oracle then corrupt expects else expects in
  let failures =
    (if st.submitted <> st.replied then
       [ Printf.sprintf "%d submitted, %d replied" st.submitted st.replied ]
     else [])
    @ (if drops <> 0 then [ Printf.sprintf "%d network drops" drops ] else [])
    @ (if st.unexpected <> 0 then
         [ Printf.sprintf "%d unexpected outcomes" st.unexpected ]
       else [])
    @ check ~read:(E.read_committed c) expects
  in
  E.stop c;
  let host =
    [ ("setup_s", setup_s);
      ("host_txn_per_s", Probe.ratio (float_of_int committed_run) (Probe.seconds wall_ns));
      ("wall_us_per_txn", Probe.per wall_ns committed_run /. 1000.);
      ("sim.ns_per_event", Probe.per wall_ns events);
      ("gc.minor_words_per_txn", Probe.ratio gc.minor_words (float_of_int replies_run));
      ("gc.major_words_per_txn", Probe.ratio gc.major_words (float_of_int replies_run));
      ("gc.major_collections", float_of_int gc.major_collections) ]
    @
    if not traced then []
    else
      [ ("workload.gen_us_per_txn", Probe.per probe.gen_ns probe.gen_calls /. 1000.);
        ("alohadb.submit_us_per_txn", Probe.per probe.submit_ns submitted_run /. 1000.);
        ("timed_us_per_txn",
         Probe.per (probe.gen_ns + probe.submit_ns + probe.handler_ns) committed_run
         /. 1000.);
        ("epoch.host_ms_p50", Probe.percentile epoch_host_ms 50.);
        ("epoch.host_ms_p99", Probe.percentile epoch_host_ms 99.) ]
      @ (if probe.handler_calls = 0 then []
         else
           [ ("functor_cc.handler_us_per_call",
              Probe.per probe.handler_ns probe.handler_calls /. 1000.) ])
      @
      if count "plan.plans" = 0 then []
      else [ ("functor_cc.plan_build_p50_ms", hist_ms metrics "plan.build_us" 50.) ]
  in
  let sim_values =
    [ ("sim_tps", float_of_int st.m_ok *. 1e6 /. float_of_int spec.measure_us);
      ("sim_p50_ms", Probe.percentile_sorted lats 50. /. 1000.);
      ("sim_p999_ms", Probe.percentile_sorted lats 99.9 /. 1000.);
      ("sim_samples", float_of_int (Array.length lats));
      ("failed_frac", per_txn st.m_aborted);
      ("sim.events_per_txn", Probe.per events replies_run) ]
    @
    if not traced then []
    else
      [ ("net.msgs_per_txn", per_txn msgs);
        ("alohadb.functors_per_txn", per_txn (count "aloha.functors_installed"));
        ("alohadb.install_p50_ms", hist_ms metrics "aloha.lat_install_us" 50.);
        ("alohadb.install_p99_ms", hist_ms metrics "aloha.lat_install_us" 99.);
        ("alohadb.fastpath_commit_p50_ms", hist_ms metrics "aloha.lat_fastpath_us" 50.);
        ("alohadb.wait_p50_ms", hist_ms metrics "aloha.lat_wait_us" 50.);
        ("alohadb.proc_p50_ms", hist_ms metrics "aloha.lat_proc_us" 50.);
        ("alohadb.proc_p99_ms", hist_ms metrics "aloha.lat_proc_us" 99.);
        ("alohadb.sim_cpu_util",
         Probe.ratio (float_of_int busy) (float_of_int (cores c * spec.measure_us)));
        ("alohadb.install_abort_frac", per_txn (Kernel.Result.abort result "install"));
        ("epoch.stretch_p99", Probe.percentile stretch 99.);
        ("functor_cc.computed_per_txn", per_txn (count "fcc.computed"));
        ("functor_cc.plan_nodes_per_plan",
         Probe.per (count "plan.nodes") (count "plan.plans"));
        ("functor_cc.plan_strata_mean", hist_mean metrics "plan.strata");
        ("functor_cc.plan_evaluate_p50_ms", hist_ms metrics "plan.evaluate_us" 50.);
        ("functor_cc.handler_calls_per_txn", Probe.per probe.handler_calls replies_run);
        ("functor_cc.remote_reads_per_txn", per_txn (count "fcc.remote_reads"));
        ("functor_cc.push_useful_frac",
         Probe.per (count "fcc.push_hits") (count "fcc.pushes_sent"));
        ("functor_cc.on_demand_waits_per_txn", per_txn (count "fcc.on_demand_waits"));
        ("functor_cc.fastpath_merges_per_txn", per_txn (count "fcc.fastpath_merges")) ]
  in
  { Probe.host;
    sim = sim_values;
    attempted = st.submitted;
    failed = st.unexpected + (st.submitted - st.replied);
    failures }
