module Registry = Functor_cc.Registry
module Value = Functor_cc.Value

type ('req, 'resp) node = {
  sim : Sim.Engine.t;
  rpc : ('req, 'resp) Net.Rpc.t;
  node_id : int;
  partition_of : string -> int;
  funreg : Functor_cc.Registry.t;
  metrics : Sim.Metrics.t;
  params : Kernel.Params.t;
  seed : int;
}

module type SERVER = sig
  type t
  type req
  type resp

  val name : string
  val create : (req, resp) node -> t
  val start : t -> unit
  val submit : ?k:(unit -> unit) -> t -> Ctxn.t -> unit
  val load_initial : t -> key:string -> Value.t -> unit
  val read_local : t -> string -> Value.t option
  val gauges : (string * (t -> int)) list
  val committed_key : string
  val latency_key : string
  val abort_keys : (string * string) list
  val counter_keys : (string * string) list
  val stage_keys : (string * string) list
end

module type S = sig
  include Kernel.Intf.ENGINE

  val set_trace :
    cluster -> (src:Net.Address.t -> dst:Net.Address.t -> unit) -> unit

  val drop_stats : cluster -> Net.Network.drop_stats
  val partition_of : cluster -> string -> int
end

exception Handler_aborted

let no_static_form what =
  invalid_arg ("Calvin.Deployment.apply: " ^ what ^ " has no static form")

(* Every read observes the pre-transaction state: sibling writes are not
   visible, exactly as ALOHA functors read strictly below the
   transaction's version. *)
let apply funreg (txn : Ctxn.t) ~reads =
  let read k = Option.join (List.assoc_opt k reads) in
  (* Matches the ALOHA built-ins: total, an absent key counts as 0. *)
  let arith key f =
    let prev = match read key with None -> 0 | Some v -> Value.to_int v in
    [ (key, Value.int (f prev)) ]
  in
  let dep (dk, (dw : Registry.dep_write)) =
    match dw with
    | Dep_put w -> Some (dk, w)
    | Dep_skip -> None
    | Dep_delete -> no_static_form "Dep_delete"
  in
  let one (key, (op : Kernel.Txn.op)) =
    match op with
    | Put v -> [ (key, v) ]
    | Delete -> no_static_form "Delete"
    | Add d -> arith key (fun prev -> prev + d)
    | Subtr d -> arith key (fun prev -> prev - d)
    | Max d -> arith key (fun prev -> if d > prev then d else prev)
    | Min d -> arith key (fun prev -> if d < prev then d else prev)
    | Call { handler; read_set; args } | Det { handler; read_set; args; _ }
      -> (
        let h =
          match Registry.find funreg handler with
          | Some h -> h
          | None -> raise Handler_aborted
        in
        let ctx =
          { Registry.key;
            version = txn.version;
            reads = List.map (fun k -> (k, read k)) read_set;
            args }
        in
        match h ctx with
        | Commit v -> [ (key, v) ]
        | Abort -> raise Handler_aborted
        | Delete -> no_static_form "Delete"
        | Commit_det (v, deps) -> (key, v) :: List.filter_map dep deps)
  in
  match List.concat_map one txn.writes with
  | writes -> writes
  | exception Handler_aborted ->
      (* Deterministic stored procedures cannot abort (the open-source
         Calvin restriction the paper compares against); an aborting or
         unregistered handler degrades to writing nothing. *)
      []

let lower ~version txn =
  let d = Kernel.Txn.static_form txn in
  { Ctxn.read_set = Kernel.Txn.read_set d;
    write_set = Kernel.Txn.write_keys d;
    writes = d.Kernel.Txn.writes;
    version }

module Make (Server : SERVER) = struct
  let name = Server.name

  type cluster = {
    sim : Sim.Engine.t;
    metrics : Sim.Metrics.t;
    rpc : (Server.req, Server.resp) Net.Rpc.t;
    servers : Server.t array;
    partition_of : string -> int;
    funreg : Functor_cc.Registry.t;
    mutable seq : int;  (* per-cluster version for handler contexts *)
  }

  let create ?(seed = 42) (params : Kernel.Params.t) =
    let funreg = Functor_cc.Registry.with_builtins () in
    let n = params.n_servers in
    if n <= 0 then invalid_arg (name ^ ": n_servers");
    let sim = Sim.Engine.create () in
    let rng = Sim.Rng.create seed in
    let metrics = Sim.Metrics.create () in
    let rpc =
      Net.Rpc.create sim (Sim.Rng.split rng) ~latency:Net.Latency.lan
        ?faults:params.faults ()
    in
    let part = Net.Partitioner.by_prefix_int ~partitions:n in
    let partition_of key = Net.Partitioner.partition_of part key in
    let servers =
      Array.init n (fun node_id ->
          Server.create
            { sim; rpc; node_id; partition_of; funreg; metrics; params;
              seed })
    in
    (match params.obs with
    | None -> ()
    | Some ctl ->
        Net.Rpc.set_fault_hook rpc (fun ~now ~dst ~kind ->
            Obs.Ctl.note_fault ctl ~now ~node:(Net.Address.to_int dst) ~kind);
        let g = Obs.Ctl.gauges ctl in
        Obs.Gauges.bind_metrics g metrics;
        Obs.Gauges.add_probe g (fun () ->
            List.iter
              (fun (key, value) ->
                let sum = Array.fold_left (fun n s -> n + value s) 0 servers in
                Sim.Metrics.set_gauge metrics key (float_of_int sum))
              Server.gauges;
            let drops = Net.Network.total_drops (Net.Rpc.drop_stats rpc) in
            Sim.Metrics.set_gauge metrics "gauge.net_drops"
              (float_of_int drops)));
    { sim; metrics; rpc; servers; partition_of; funreg; seq = 0 }

  let register cl name h = Functor_cc.Registry.register cl.funreg name h
  let start cl = Array.iter Server.start cl.servers
  let stop (_ : cluster) = ()
  let sim cl = cl.sim
  let metrics cl = cl.metrics
  let n_servers cl = Array.length cl.servers
  let partition_of cl key = cl.partition_of key
  let set_trace cl f = Net.Rpc.set_trace cl.rpc f
  let drop_stats cl = Net.Rpc.drop_stats cl.rpc

  let load cl key v =
    Server.load_initial cl.servers.(cl.partition_of key) ~key v

  let read_committed cl key =
    Server.read_local cl.servers.(cl.partition_of key) key

  (* The callback fires on commit and on give-up alike; a server that can
     give up reports it through its abort metric keys. *)
  let submit cl ~fe txn ~k =
    cl.seq <- cl.seq + 1;
    Server.submit cl.servers.(fe)
      (lower ~version:cl.seq txn)
      ~k:(fun () -> k Kernel.Txn.Ok)

  let committed_key = Server.committed_key
  let latency_key = Server.latency_key
  let abort_keys = Server.abort_keys
  let counter_keys = Server.counter_keys
  let stage_keys = Server.stage_keys
end
