type t = {
  n_servers : int;
  epoch_us : int option;
      (* epoch / sequencer batch duration; engines without epochs ignore it *)
  faults : Net.Faults.t option;
      (* fault-injection oracle threaded into the cluster's network(s);
         None = fault-free.  Engines may also harden their configuration
         (retries, durability) when faults are present. *)
  obs : Obs.Ctl.t option;
      (* observability handle: lifecycle tracing + gauge sampling.
         None (the default) compiles the hot paths down to a single
         option test per emit site. *)
  compute : string option;
      (* compute-phase selector: ALOHA accepts only "planned" (its one
         strategy); engines without a compute phase ignore it. *)
  runtime : string option;
      (* execution backend: "sim" (default; everything on the simulation
         domain) or "real" (ALOHA evaluates planned functors' key runs on a
         pool of OCaml 5 worker domains).  Engines without a real
         backend ignore it. *)
  domains : int option;
      (* worker-domain count for the real runtime; None = engine
         default.  Ignored under runtime "sim". *)
  replicas : int option;
      (* replication degree per partition; None/Some 1 = unreplicated.
         Engines without replication ignore it. *)
  fastpath : bool option;
      (* coordination-free commit lane for all-commutative transactions
         (ALOHA's algebraic fast path); None/Some false = off.  Engines
         without such a lane ignore it. *)
}

let make ?epoch_us ?faults ?obs ?compute ?runtime ?domains ?replicas
    ?fastpath ~n_servers () =
  { n_servers; epoch_us; faults; obs; compute; runtime; domains; replicas;
    fastpath }
