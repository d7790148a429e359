let name = "aloha"

type cluster = Cluster.t

let options_of ?seed (params : Kernel.Params.t) =
  let base = Cluster.default_options in
  { base with
    Cluster.n_servers = params.n_servers;
    seed = (match seed with Some s -> s | None -> base.Cluster.seed);
    epoch =
      (match params.epoch_us with
      | Some duration_us -> { Epoch.Manager.duration_us }
      | None -> base.Cluster.epoch);
    faults = params.faults;
    obs = params.obs;
    config =
      (let fail fmt = Printf.ksprintf invalid_arg ("Alohadb.Engine: " ^^ fmt) in
       (match params.compute with
       | None | Some "planned" -> ()
       | Some s -> fail "unknown compute mode %S (expected planned)" s);
       let cfg = base.Cluster.config in
       let runtime_mode =
         match params.runtime with
         | None -> cfg.runtime_mode
         | Some s -> (
             match Config.runtime_mode_of_string s with
             | Some m -> m
             | None -> fail "unknown runtime %S (expected sim|real)" s)
       in
       let positive flag default = function
         | None -> default
         | Some n when n >= 1 -> n
         | Some _ -> fail "--%s must be >= 1" flag
       in
       let domains = positive "domains" cfg.domains params.domains in
       (* OCaml 5.1's Max_domains: Domain.spawn fails past it, after the
          pool has spawned the domains before it. *)
       if domains > 128 then fail "--domains must be <= 128";
       { cfg with
         Config.runtime_mode;
         domains;
         fastpath = params.fastpath = Some true || cfg.fastpath;
         replicas = positive "replicas" cfg.replicas params.replicas }) }

let create ?seed params =
  Cluster.create
    ~registry:(Functor_cc.Registry.with_builtins ())
    (options_of ?seed params)

let set_trace = Cluster.set_trace
let drop_stats = Cluster.drop_stats
let register c name h = Functor_cc.Registry.register (Cluster.registry c) name h
let load c key v = Cluster.load c ~key v
let start = Cluster.start

(* Quiesce: under --runtime real this joins the worker-domain pool (the
   simulated state stays readable); a no-op otherwise.  Idempotent. *)
let stop = Cluster.shutdown
let sim = Cluster.sim
let metrics = Cluster.metrics
let n_servers = Cluster.n_servers

let submit c ~fe txn ~k =
  let d = Kernel.Txn.functor_form txn in
  Cluster.submit c ~fe
    (Txn.read_write ~precondition_keys:d.precondition_keys d.writes)
    (fun result ->
      k
        (match result with
        | Txn.Committed _ | Txn.Values _ -> Kernel.Txn.Ok
        | Txn.Aborted { stage; _ } -> Kernel.Txn.Aborted stage))

let read_committed c key =
  (* Through the routing table: after a failover the partition's state
     lives on the promoted replica, not the home server. *)
  let srv = Cluster.primary_server c ~partition:(Cluster.partition_of c key) in
  let result = ref None in
  Functor_cc.Compute_engine.get (Server.engine srv)
    ~key:(Mvstore.Key.intern key) ~version:max_int (fun v -> result := v);
  !result

let committed_key = "aloha.committed"
let latency_key = "aloha.lat_total_us"

let abort_keys =
  [ ("install", "aloha.aborted_install"); ("compute", "aloha.aborted_compute") ]

let counter_keys =
  (* Planner accounting. *)
  [ ("plans", "plan.plans");
    ("plan nodes", "plan.nodes");
    ("plan edges", "plan.edges");
    ("plan subs sent", "plan.subs_sent");
    (* Algebraic fast path: all-zero unless --fastpath on. *)
    ("fastpath commits", "aloha.fastpath_commits");
    ("fastpath merges", "fcc.fastpath_merges") ]

let stage_keys =
  [ ("functor installing", "aloha.lat_install_us");
    ("wait for processing", "aloha.lat_wait_us");
    ("processing", "aloha.lat_proc_us");
    (* Coordination-free commit latency: no samples unless --fastpath on. *)
    ("fastpath commit", "aloha.lat_fastpath_us") ]
