(* epoch-real2: one closed epoch of commutative ADDs evaluated by the
   planner on the real-parallelism runtime, driven through
   Functor_cc.Compute_engine / Planner and Runtime.Pool directly. *)

module Ce = Functor_cc.Compute_engine

type spec = { n_keys : int; n_ops : int }

(* The planner's stratum hooks, timed on the orchestrating domain. *)
type hooks = { mutable stratum_t0 : int; mutable in_stratum_ns : int }

let run_rep ?(corrupt_oracle = false) spec ~seed ~domains ~traced () =
  let t_setup = Probe.now_ns () in
  let des = Sim.Engine.create () in
  (* The dispatch replay's simulated workers, as in the real-runtime
     domain sweep of bench/main.exe. *)
  let pool = Sim.Worker_pool.create des ~workers:4 in
  let metrics = Sim.Metrics.create () in
  let callbacks =
    { Ce.is_local = (fun _ -> true);
      remote_get = (fun ~key:_ ~version:_ k -> k None);
      send_push = (fun ~dst_key:_ ~version:_ ~src_key:_ _ -> ());
      send_dep_write = (fun ~key:_ ~version:_ _ -> ());
      notify_final = (fun ~key:_ ~version:_ ~pending:_ ~final:_ -> ());
      exec = (fun ~cost k -> Sim.Worker_pool.submit pool ~cost k);
      now = (fun () -> Sim.Engine.now des) }
  in
  let e =
    Ce.create ~registry:(Functor_cc.Registry.with_builtins ()) ~callbacks
      ~compute_cost_us:1 ~metrics ()
  in
  let keys =
    Array.init spec.n_keys (fun i -> Mvstore.Key.intern (Printf.sprintf "e2e:%d" i))
  in
  Array.iter (fun key -> Ce.load_initial e ~key (Functor_cc.Value.int 0)) keys;
  (* The generator: uniform key draws, one ADD-1 functor each, versions
     dense per key in draw order.  Every repetition draws the same epoch
     from the seed, so its simulated values repeat exactly. *)
  let t_gen = Probe.now_ns () in
  let rng = Sim.Rng.create seed in
  let adds = Array.make spec.n_keys 0 in
  let ops =
    Array.init spec.n_ops (fun _ ->
        let ki = Sim.Rng.int rng spec.n_keys in
        adds.(ki) <- adds.(ki) + 1;
        ( ki,
          adds.(ki),
          Functor_cc.Funct.mk_pending ~ftype:Functor_cc.Ftype.Add
            ~farg:(Functor_cc.Funct.farg_args [ Functor_cc.Value.int 1 ])
            ~txn_id:adds.(ki) ~coordinator:0 ))
  in
  let gen_ns = Probe.now_ns () - t_gen in
  let items =
    Array.to_list
      (Array.map
         (fun (ki, version, funct) ->
           let key = keys.(ki) in
           (match Ce.install e ~key ~version ~lo:0 ~hi:max_int funct with
           | Ok () -> ()
           | Error _ -> failwith "epoch-real2: install failed");
           { Functor_cc.Processor.key; version })
         ops)
  in
  let rpool = Runtime.Pool.create ~domains in
  let hooks = { stratum_t0 = 0; in_stratum_ns = 0 } in
  let on_stratum ~size:_ = hooks.stratum_t0 <- Probe.now_ns () in
  let on_stratum_done ~size:_ ~workers:_ =
    hooks.in_stratum_ns <- hooks.in_stratum_ns + (Probe.now_ns () - hooks.stratum_t0)
  in
  let planner =
    if traced then
      Functor_cc.Planner.create ~engine:e ~pool ~real:rpool ~dispatch_cost_us:1
        ~metrics ~now:(fun () -> Sim.Engine.now des) ~on_stratum ~on_stratum_done ()
    else
      Functor_cc.Planner.create ~engine:e ~pool ~real:rpool ~dispatch_cost_us:1
        ~metrics ~now:(fun () -> Sim.Engine.now des) ()
  in
  let setup_s = Probe.seconds (Probe.now_ns () - t_setup) in
  let gc0 = Probe.gc_now () in
  let t0 = Probe.now_ns () in
  let stats = Functor_cc.Planner.run planner ~items in
  let t1 = Probe.now_ns () in
  Sim.Engine.run des;
  let t2 = Probe.now_ns () in
  let gc = Probe.gc_since gc0 in
  let events = Sim.Engine.events_fired des in
  let completed = Runtime.Pool.completed rpool and stolen = Runtime.Pool.stolen rpool in
  Runtime.Pool.shutdown rpool;
  let count name = Sim.Metrics.get metrics name in
  let evaluated = count "plan.real_evaluated" in
  let value_of ki =
    let v = ref None in
    Ce.get e ~key:keys.(ki) ~version:max_int (fun x -> v := x);
    !v
  in
  if corrupt_oracle then adds.(0) <- adds.(0) + 1;
  let lost = ref 0 and failures = ref [] in
  Array.iteri
    (fun ki want ->
      match value_of ki with
      | Some (Functor_cc.Value.Int got) when got = want -> ()
      | got ->
          (match got with
          | Some (Functor_cc.Value.Int got) -> lost := !lost + abs (want - got)
          | _ -> lost := !lost + want);
          failures :=
            Printf.sprintf "key %d: expected %d, read %s" ki want
              (match got with
              | Some v -> Functor_cc.Value.to_string v
              | None -> "nothing")
            :: !failures)
    adds;
  let failures =
    (if evaluated <> spec.n_ops then
       [ Printf.sprintf "plan.real_evaluated = %d, expected %d" evaluated spec.n_ops ]
     else [])
    @ List.rev !failures
  in
  let epoch_ns = t2 - t0 in
  let host =
    [ ("setup_s", setup_s);
      ("host_txn_per_s", Probe.ratio (float_of_int spec.n_ops) (Probe.seconds epoch_ns));
      ("epoch_ms", float_of_int epoch_ns /. 1e6);
      ("planner_ms", float_of_int (t1 - t0) /. 1e6);
      ("replay_ms", float_of_int (t2 - t1) /. 1e6);
      ("sim.ns_per_event", Probe.per epoch_ns events);
      ("workload.gen_us_per_txn", Probe.per gen_ns spec.n_ops /. 1000.);
      ("gc.minor_words_per_txn", gc.minor_words /. float_of_int spec.n_ops);
      ("gc.major_words_per_txn", gc.major_words /. float_of_int spec.n_ops);
      ("gc.major_collections", float_of_int gc.major_collections);
      (* Outside the stratum spans and the replay: the planner's serial
         build, staging and commit work. *)
      ("kernel.unattributed_host_frac",
       1. -. Probe.per (hooks.in_stratum_ns + (t2 - t1)) epoch_ns);
      ("runtime.in_stratum_frac", Probe.per hooks.in_stratum_ns (t1 - t0));
      ("runtime.steal_frac", Probe.per stolen completed) ]
  in
  let sim =
    [ ("sim.events_per_txn", Probe.per events spec.n_ops);
      ("functor_cc.computed_per_txn", Probe.per (count "fcc.computed") spec.n_ops);
      ("functor_cc.plan_nodes_per_plan", float_of_int stats.Functor_cc.Planner.nodes);
      ("functor_cc.plan_strata_mean", float_of_int stats.Functor_cc.Planner.strata);
      ("functor_cc.plan_evaluate_p50_ms", Aloha_wl.hist_ms metrics "plan.evaluate_us" 50.);
      ("functor_cc.remote_reads_per_txn", Probe.per (count "fcc.remote_reads") spec.n_ops);
      ("functor_cc.push_useful_frac",
       Probe.per (count "fcc.push_hits") (count "fcc.pushes_sent"));
      ("functor_cc.on_demand_waits_per_txn",
       Probe.per (count "fcc.on_demand_waits") spec.n_ops);
      ("functor_cc.fastpath_merges_per_txn",
       Probe.per (count "fcc.fastpath_merges") spec.n_ops);
      ("runtime.strata_per_epoch", float_of_int (count "plan.real_strata"));
      ("runtime.fallback_frac",
       Probe.per (count "plan.real_fallback")
         (count "plan.real_evaluated" + count "plan.real_fallback")) ]
  in
  { Probe.host; sim; attempted = spec.n_ops; failed = !lost; failures }
