type built =
  | Built :
      (module Kernel.Intf.ENGINE with type cluster = 'c)
      * 'c
      * (fe:int -> Kernel.Txn.t)
      -> built

let engines : (string * Kernel.Intf.packed) list =
  [ ("aloha", Kernel.Intf.Pack (module Alohadb.Engine));
    ("calvin", Kernel.Intf.Pack (module Calvin.Engine));
    ("twopl", Kernel.Intf.Pack (module Twopl.Engine)) ]

let engine_of_name name = List.assoc_opt name engines

let engine_name (Kernel.Intf.Pack (module E)) = E.name

let build (type k) (Kernel.Intf.Pack (module E))
    (module W : Kernel.Intf.WORKLOAD with type cfg = k) (cfg : k) ~n
    ?epoch_us ?obs ?runtime ?domains ?replicas ?fastpath ?(seed = 17) () =
  let params =
    Kernel.Params.make ?epoch_us ?obs ?runtime ?domains ?replicas ?fastpath
      ~n_servers:n ()
  in
  let c = E.create params in
  W.register cfg ~register:(E.register c);
  W.load cfg ~n_servers:n ~put:(E.load c);
  E.start c;
  let gen = W.generator cfg ~n_servers:n ~seed in
  Built ((module E), c, gen)

let tpcc ~engine ~n ~warehouses_per_host ~kind ?epoch_us ?obs ?runtime
    ?domains ?replicas ?fastpath ?seed () =
  let cfg = Workload.Tpcc.default_cfg ~n_servers:n ~warehouses_per_host in
  match kind with
  | `NewOrder ->
      build engine (module Workload.Tpcc.Neworder) cfg ~n ?epoch_us ?obs
        ?runtime ?domains ?replicas ?fastpath ?seed ()
  | `Payment ->
      build engine (module Workload.Tpcc.Payment) cfg ~n ?epoch_us ?obs
        ?runtime ?domains ?replicas ?fastpath ?seed ()

let stpcc ~engine ~n ~districts_per_host ?epoch_us ?obs ?runtime
    ?domains ?replicas ?fastpath ?seed () =
  let cfg = Workload.Scaled_tpcc.default_cfg ~n_servers:n ~districts_per_host in
  build engine (module Workload.Scaled_tpcc.Neworder) cfg ~n ?epoch_us ?obs
    ?runtime ?domains ?replicas ?fastpath ?seed ()

let ycsb ~engine ~n ~ci ?(keys_per_partition = 50_000) ?epoch_us ?obs
    ?runtime ?domains ?replicas ?fastpath ?seed () =
  let cfg = Workload.Ycsb.cfg_of_contention_index ~keys_per_partition ci in
  build engine (module Workload.Ycsb.Workload) cfg ~n ?epoch_us ?obs ?runtime
    ?domains ?replicas ?fastpath ?seed ()

let run (Built ((module E), cluster, gen)) ~arrival ?obs ?warmup_us
    ?measure_us ?seed () =
  Kernel.Run.run (module E) ~cluster ~gen ~arrival ?obs ?warmup_us
    ?measure_us ?seed ()
