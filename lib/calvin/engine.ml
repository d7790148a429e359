module Value = Functor_cc.Value

let name = "calvin"

type cluster = {
  c : Cluster.t;
  funreg : Functor_cc.Registry.t;
  seq : int ref;  (* per-cluster version for handler contexts *)
}

let apply_proc funreg : Ctxn.proc =
 fun ~txn ~reads ->
  let ops = Kernel.Txn.decode_writes (List.nth txn.Ctxn.args 0) in
  let version = Value.to_int (List.nth txn.Ctxn.args 1) in
  match Kernel.Apply.writes ~registry:funreg ~version ~reads ops with
  | Some writes -> writes
  | None ->
      (* Deterministic stored procedures cannot abort (the open-source
         Calvin restriction the paper compares against); an aborting
         handler degrades to writing nothing. *)
      []

let lower ~version txn =
  let d = Kernel.Txn.static_form txn in
  { Ctxn.proc = "kernel_apply";
    read_set = Kernel.Txn.read_set d;
    write_set = Kernel.Txn.write_keys d;
    args = [ Kernel.Txn.encode_writes d.Kernel.Txn.writes; Value.int version ] }

let options_of ?seed (params : Kernel.Params.t) =
  let base = Cluster.default_options in
  { base with
    Cluster.n_servers = params.n_servers;
    partitioner = `Prefix;
    seed = (match seed with Some s -> s | None -> base.Cluster.seed);
    faults = params.faults;
    obs = params.obs;
    epoch_us = Option.value params.epoch_us ~default:base.Cluster.epoch_us }

let create ?seed params =
  let funreg = Functor_cc.Registry.with_builtins () in
  let creg = Ctxn.with_builtins () in
  Ctxn.register creg "kernel_apply" (apply_proc funreg);
  { c = Cluster.create ~registry:creg (options_of ?seed params);
    funreg;
    seq = ref 0 }

let set_trace cl f = Cluster.set_trace cl.c f
let drop_stats cl = Cluster.drop_stats cl.c
let register cl name h = Functor_cc.Registry.register cl.funreg name h
let load cl key v = Cluster.load cl.c ~key v
let start cl = Cluster.start cl.c
let stop (_ : cluster) = ()
let sim cl = Cluster.sim cl.c
let metrics cl = Cluster.metrics cl.c
let n_servers cl = Cluster.n_servers cl.c

let submit cl ~fe txn ~k =
  incr cl.seq;
  Cluster.submit cl.c ~fe
    (lower ~version:!(cl.seq) txn)
    ~k:(fun () -> k Kernel.Txn.Ok)

let read_committed cl key =
  Server.read_local (Cluster.server cl.c (Cluster.partition_of cl.c key)) key

let committed_key = "calvin.committed"
let latency_key = "calvin.lat_total_us"

(* Calvin procs cannot abort, so there is no abort counter to report —
   an empty list is the truthful answer (the old driver read
   never-incremented "calvin.aborted_*" counters). *)
let abort_keys = []
let counter_keys = [ ("missing proc", "calvin.missing_proc") ]

let stage_keys =
  [ ("sequencing", "calvin.stage_seq_us");
    ("locking and read", "calvin.stage_lockread_us");
    ("processing", "calvin.stage_proc_us") ]
