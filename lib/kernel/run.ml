let run_window ~sim ~metrics ?obs ~warmup_us ~measure_us () =
  (match obs with
  | Some ctl -> Obs.Ctl.arm ctl ~sim ~for_us:(warmup_us + measure_us)
  | None -> ());
  Sim.Engine.run ~until:(Sim.Engine.now sim + warmup_us) sim;
  Sim.Metrics.reset metrics;
  (match obs with Some ctl -> Obs.Ctl.measure_reset ctl | None -> ());
  Sim.Engine.run ~until:(Sim.Engine.now sim + measure_us) sim

let run (type c) (module E : Intf.ENGINE with type cluster = c)
    ~(cluster : c) ~gen ~arrival ?on_reply ?obs ?(warmup_us = 150_000)
    ?(measure_us = 400_000) ?(seed = 7) () =
  let sim = E.sim cluster in
  let metrics = E.metrics cluster in
  let rng = Sim.Rng.create seed in
  let observe =
    match on_reply with
    | None -> fun ~fe:_ (_ : Txn.reply) -> ()
    | Some f -> f
  in
  Arrivals.install ~sim ~rng ~n_fes:(E.n_servers cluster) ~arrival
    ~submit:(fun ~fe ~done_k ->
      E.submit cluster ~fe (gen ~fe) ~k:(fun reply ->
          observe ~fe reply;
          done_k ()));
  run_window ~sim ~metrics ?obs ~warmup_us ~measure_us ();
  Result.extract ~metrics ~measure_us ~committed_key:E.committed_key
    ~latency_key:E.latency_key ~abort_keys:E.abort_keys
    ~counter_keys:E.counter_keys ~stage_keys:E.stage_keys
