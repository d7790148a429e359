(** Engine-neutral deployment parameters.

    The intersection of what every {!Intf.ENGINE} needs to assemble a
    cluster.  ALOHA-specific tuning (straggler optimisation, clock skew,
    …) stays behind [Alohadb.Cluster.create]; the Calvin and 2PL
    deployment ({!Calvin.Deployment}) reads nothing else. *)

type t = {
  n_servers : int;
  epoch_us : int option;
      (** epoch / sequencer batch duration; engines without epochs ignore
          it *)
  faults : Net.Faults.t option;
      (** fault-injection oracle wired into the cluster's network(s);
          [None] (the default) is fault-free.  Engines that can survive
          faults additionally harden their configuration (retries, WAL
          durability) when this is set. *)
  obs : Obs.Ctl.t option;
      (** observability handle (lifecycle tracing, gauge sampling, fault
          correlation); [None] (the default) keeps every hot path down to
          one option test per emit site. *)
  compute : string option;
      (** compute-phase selector: ALOHA has one strategy, the per-epoch
          planner, and accepts only "planned" (anything else raises
          [Invalid_argument]); engines without a compute phase ignore
          it *)
  runtime : string option;
      (** execution backend: "sim" (default; single-domain simulation) or
          "real" (ALOHA evaluates planned functors' key runs on a pool of
          OCaml 5 worker domains, for wall-clock measurements); engines
          without a real backend ignore it *)
  domains : int option;
      (** worker-domain count for the real runtime; [None] leaves the
          engine default.  Ignored under runtime "sim" *)
  replicas : int option;
      (** replication degree per partition (ALOHA ships each partition's
          WAL to [k - 1] follower backends and fails over on crash);
          [None] / [Some 1] = unreplicated.  Engines without replication
          ignore it *)
  fastpath : bool option;
      (** coordination-free commit lane for all-commutative transactions
          (ALOHA acknowledges them at install time instead of waiting for
          epoch close + compute); [None] / [Some false] = off.  Engines
          without such a lane ignore it *)
}

val make :
  ?epoch_us:int -> ?faults:Net.Faults.t -> ?obs:Obs.Ctl.t ->
  ?compute:string -> ?runtime:string -> ?domains:int -> ?replicas:int ->
  ?fastpath:bool -> n_servers:int -> unit -> t
