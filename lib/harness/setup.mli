(** Cluster + workload assembly through the kernel signatures.

    One generic builder, behind the per-workload wrappers below, creates
    the engine's cluster, registers the workload's handlers, loads the
    initial data, starts the cluster, and pairs it with the workload's
    request generator.  The result is a {!built} existential ready for
    {!run}.  [runtime] selects the execution backend ("sim" / "real") and
    [domains] the real runtime's worker-domain count; [seed] (default 17)
    seeds the workload generator; [obs] threads an observability handle
    into the engine's cluster (pass the same handle to {!run}). *)

type built =
  | Built :
      (module Kernel.Intf.ENGINE with type cluster = 'c)
      * 'c
      * (fe:int -> Kernel.Txn.t)
      -> built

val engines : (string * Kernel.Intf.packed) list
(** All registered engines: aloha, calvin, twopl. *)

val engine_of_name : string -> Kernel.Intf.packed option

val engine_name : Kernel.Intf.packed -> string

(* -- convenience wrappers over the bundled workloads -- *)

val tpcc :
  engine:Kernel.Intf.packed ->
  n:int ->
  warehouses_per_host:int ->
  kind:[ `NewOrder | `Payment ] ->
  ?epoch_us:int ->
  ?obs:Obs.Ctl.t ->
  ?runtime:string ->
  ?domains:int ->
  ?replicas:int ->
  ?fastpath:bool ->
  ?seed:int ->
  unit ->
  built

val stpcc :
  engine:Kernel.Intf.packed ->
  n:int ->
  districts_per_host:int ->
  ?epoch_us:int ->
  ?obs:Obs.Ctl.t ->
  ?runtime:string ->
  ?domains:int ->
  ?replicas:int ->
  ?fastpath:bool ->
  ?seed:int ->
  unit ->
  built

val ycsb :
  engine:Kernel.Intf.packed ->
  n:int ->
  ci:float ->
  ?keys_per_partition:int ->
  ?epoch_us:int ->
  ?obs:Obs.Ctl.t ->
  ?runtime:string ->
  ?domains:int ->
  ?replicas:int ->
  ?fastpath:bool ->
  ?seed:int ->
  unit ->
  built

val run :
  built ->
  arrival:Kernel.Arrivals.t ->
  ?obs:Obs.Ctl.t ->
  ?warmup_us:int ->
  ?measure_us:int ->
  ?seed:int ->
  unit ->
  Kernel.Result.t
(** {!Kernel.Run.run} on a {!built} deployment (already created, loaded
    and started by {!build}). *)
