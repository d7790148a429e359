(* The real-parallelism runtime: the domain pool in isolation (barrier
   semantics, work stealing, shutdown discipline, the caller as worker
   slot 0) and the end-to-end guarantees the planner builds on it —
   evaluating an epoch's key runs on 1 domain and on 8 domains is
   observationally identical, and a handler that raises mid-run leaves no
   record claimed. *)

module Pool = Runtime.Pool
module Value = Functor_cc.Value
module Ftype = Functor_cc.Ftype
module Funct = Functor_cc.Funct
module Registry = Functor_cc.Registry
module Engine = Functor_cc.Compute_engine

let ik = Mvstore.Key.intern

(* ---- pool: submit / run_batch barrier ----------------------------------- *)

(* run_batch must be a full barrier: every task's plain writes are visible
   to the caller when it returns, and to the tasks of any later batch.  A
   second batch sums the first batch's writes from worker domains — if the
   barrier leaked, a worker could observe a zero slot. *)
let test_batch_barrier () =
  let p = Pool.create ~domains:4 in
  Alcotest.(check int) "n_workers" 4 (Pool.n_workers p);
  let n = 256 in
  let a = Array.make n 0 in
  let ran_on = Array.make n (-1) in
  Pool.run_batch p
    (Array.init n (fun i () ->
         a.(i) <- i + 1;
         ran_on.(i) <- (Domain.self () :> int)));
  let expect = n * (n + 1) / 2 in
  Alcotest.(check int)
    "all writes visible after barrier" expect (Array.fold_left ( + ) 0 a);
  (* the caller plus three spawned domains, never more *)
  Alcotest.(check bool)
    "at most n_workers domains ran tasks" true
    (List.length (List.sort_uniq compare (Array.to_list ran_on)) <= 4);
  let sums = Array.make 8 0 in
  Pool.run_batch p
    (Array.init 8 (fun w () -> sums.(w) <- Array.fold_left ( + ) 0 a));
  Array.iteri
    (fun w s ->
      Alcotest.(check int) (Printf.sprintf "batch 2 reader %d" w) expect s)
    sums;
  (* a raising task is counted, not fatal: the pool stays usable *)
  Pool.submit p (fun () -> failwith "boom");
  Pool.drain p;
  Alcotest.(check int) "raise counted" 1 (Pool.tasks_raised p);
  Pool.run_batch p (Array.init 4 (fun i () -> a.(i) <- -a.(i)));
  Alcotest.(check int) "pool alive after raise" (-1) a.(0);
  Pool.shutdown p

(* ---- pool: work stealing under skew ------------------------------------- *)

(* Everything lands on worker 0's queue; the tasks block (simulating I/O
   or an uneven stratum), so the idle workers must steal to finish.  The
   whole point of per-worker queues + stealing over a single shared queue
   is that this skew self-levels. *)
let test_work_stealing () =
  let p = Pool.create ~domains:4 in
  let n = 32 in
  let hits = Atomic.make 0 in
  for _ = 1 to n do
    Pool.submit_to p ~worker:0 (fun () ->
        Unix.sleepf 0.002;
        Atomic.incr hits)
  done;
  Pool.drain p;
  Alcotest.(check int) "all tasks ran" n (Atomic.get hits);
  Alcotest.(check int) "completed counter" n (Pool.completed p);
  Alcotest.(check bool)
    (Printf.sprintf "stolen > 0 (got %d)" (Pool.stolen p))
    true
    (Pool.stolen p > 0);
  Alcotest.(check bool) "queue_peak saw the skew" true (Pool.queue_peak p > 1);
  Pool.shutdown p

(* ---- pool: shutdown discipline ------------------------------------------ *)

let test_shutdown () =
  let p = Pool.create ~domains:2 in
  let hits = Atomic.make 0 in
  let n = 200 in
  for _ = 1 to n do
    Pool.submit p (fun () -> Atomic.incr hits)
  done;
  (* no drain: shutdown itself must let already-submitted work finish *)
  Pool.shutdown p;
  Alcotest.(check int) "pending work drained" n (Atomic.get hits);
  Alcotest.(check int) "completed counter" n (Pool.completed p);
  Pool.shutdown p (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Runtime.Pool: submit after shutdown") (fun () ->
      Pool.submit p (fun () -> ()));
  Alcotest.check_raises "create with 0 domains"
    (Invalid_argument "Runtime.Pool.create: domains < 1") (fun () ->
      ignore (Pool.create ~domains:0))

(* ---- pool: one domain is the caller alone -------------------------------- *)

(* [~domains:1] spawns nothing: every task of [run_batch], of [submit] +
   [drain], and of a [shutdown] that finds work still queued runs on the
   calling domain, and the pool still reports one worker. *)
let test_one_domain_caller_runs () =
  let p = Pool.create ~domains:1 in
  Alcotest.(check int) "n_workers" 1 (Pool.n_workers p);
  let self = (Domain.self () :> int) in
  let others = Atomic.make 0 and hits = Atomic.make 0 in
  let task () =
    Atomic.incr hits;
    if (Domain.self () :> int) <> self then Atomic.incr others
  in
  Pool.run_batch p (Array.make 64 task);
  Alcotest.(check int) "run_batch ran everything" 64 (Atomic.get hits);
  for _ = 1 to 16 do
    Pool.submit p task
  done;
  Pool.drain p;
  Alcotest.(check int) "drain ran the submits" 80 (Atomic.get hits);
  for _ = 1 to 8 do
    Pool.submit p task
  done;
  Pool.shutdown p;
  Alcotest.(check int) "shutdown ran the queued submits" 88 (Atomic.get hits);
  Alcotest.(check int) "every task ran on the caller" 0 (Atomic.get others);
  (* run_batch queues four chunks per worker *)
  Alcotest.(check int) "completed counter" (4 + 16 + 8) (Pool.completed p)

(* ---- planner on the real pool: 1 domain = 8 domains --------------------- *)

(* 1000 commutative ADDs (50 keys x 20 versions) through the planner with
   a real pool.  Intra-key edges weigh no level, so the whole epoch is one
   level of 50 key runs, evaluated concurrently, and every item must take
   the parallel path (builtins with intra-key deps never fall back).  The
   final store state must be byte-identical across domain counts — the
   determinism half of the sim-vs-real oracle, without a cluster around
   it. *)
let n_keys = 50
let n_versions = 20

let delta i v = ((i * 31) + (v * 7)) mod 11 + 1

let expected_total i =
  let s = ref 0 in
  for v = 1 to n_versions do
    s := !s + delta i v
  done;
  !s

let run_adds ~domains =
  let sim = Sim.Engine.create () in
  let pool = Sim.Worker_pool.create sim ~workers:3 in
  let registry = Registry.with_builtins () in
  let finals : (string * int, Funct.final) Hashtbl.t = Hashtbl.create 1024 in
  let callbacks =
    { Engine.is_local = (fun _ -> true);
      remote_get = (fun ~key:_ ~version:_ k -> k None);
      send_push = (fun ~dst_key:_ ~version:_ ~src_key:_ _ -> ());
      send_dep_write = (fun ~key:_ ~version:_ _ -> ());
      notify_final =
        (fun ~key ~version ~pending:_ ~final ->
          Hashtbl.replace finals (Mvstore.Key.name key, version) final);
      exec = (fun ~cost k -> Sim.Worker_pool.submit pool ~cost k);
      now = (fun () -> Sim.Engine.now sim) }
  in
  let metrics = Sim.Metrics.create () in
  let e =
    Engine.create ~registry ~callbacks ~compute_cost_us:1 ~metrics ()
  in
  for i = 0 to n_keys - 1 do
    Engine.load_initial e ~key:(ik (Printf.sprintf "rt:%d" i)) (Value.int 0)
  done;
  let items = ref [] in
  for v = n_versions downto 1 do
    for i = n_keys - 1 downto 0 do
      let key = ik (Printf.sprintf "rt:%d" i) in
      let funct =
        Funct.mk_pending ~ftype:Ftype.Add
          ~farg:(Funct.farg_args [ Value.int (delta i v) ])
          ~txn_id:((v * n_keys) + i)
          ~coordinator:0
      in
      (match Engine.install e ~key ~version:v ~lo:0 ~hi:max_int funct with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "install failed");
      items := { Functor_cc.Processor.key; version = v } :: !items
    done
  done;
  let rpool = Pool.create ~domains in
  let level_sizes = ref [] in
  let planner =
    Functor_cc.Planner.create ~engine:e ~pool ~real:rpool ~dispatch_cost_us:1
      ~metrics
      ~on_stratum:(fun ~size -> level_sizes := size :: !level_sizes)
      ()
  in
  let stats = Functor_cc.Planner.run planner ~items:!items in
  Sim.Engine.run sim;
  Pool.shutdown rpool;
  Alcotest.(check int)
    "planned every item" (n_keys * n_versions)
    stats.Functor_cc.Planner.nodes;
  Alcotest.(check int)
    "every item took the parallel path" (n_keys * n_versions)
    (Sim.Metrics.get metrics "plan.real_evaluated");
  Alcotest.(check int) "no fallbacks" 0
    (Sim.Metrics.get metrics "plan.real_fallback");
  Alcotest.(check int) "an ADD-only epoch is one level" 1
    (Sim.Metrics.get metrics "plan.real_strata");
  Alcotest.(check (list int)) "one callback per level, covering the epoch"
    [ n_keys * n_versions ] !level_sizes;
  List.init n_keys (fun i ->
      match Hashtbl.find_opt finals (Printf.sprintf "rt:%d" i, n_versions) with
      | Some (Funct.Committed v) -> Value.to_int v
      | Some _ -> Alcotest.fail "top version aborted/deleted"
      | None -> Alcotest.fail "top version never finalised")

let test_domain_count_determinism () =
  let expected = List.init n_keys expected_total in
  let one = run_adds ~domains:1 in
  let two = run_adds ~domains:2 in
  let eight = run_adds ~domains:8 in
  Alcotest.(check (list int)) "1 domain = oracle" expected one;
  Alcotest.(check (list int)) "2 domains = 1 domain" one two;
  Alcotest.(check (list int)) "8 domains = 1 domain" one eight

(* ---- real planner: a handler raising mid-run ----------------------------- *)

(* One key run holds ADDs, a user functor without a read set (staged by
   the worker, inside the run) whose handler raises [Failure] on its first
   call, and after it a user functor with a read set (staged by the
   orchestrator before the batch).  The raise ends the run: the raiser
   and the orchestrator-staged reader must be released back to
   [Installed] at commit, the ADDs after the raiser must never have been
   claimed, and the simulated dispatch then computes them all.  A second
   key's run is unaffected.  No record may stay [Computing]. *)
let test_raise_mid_run () =
  List.iter
    (fun domains ->
      let sim = Sim.Engine.create () in
      let pool = Sim.Worker_pool.create sim ~workers:3 in
      let registry = Registry.with_builtins () in
      let raised = Atomic.make false in
      Registry.register registry "flaky" (fun ctx ->
          if not (Atomic.exchange raised true) then failwith "flaky";
          Registry.Commit (Registry.arg ctx 0));
      Registry.register registry "copy" (fun ctx ->
          match Registry.read ctx "rx:other" with
          | Some v -> Registry.Commit v
          | None -> Registry.Abort);
      let callbacks =
        { Engine.is_local = (fun _ -> true);
          remote_get = (fun ~key:_ ~version:_ k -> k None);
          send_push = (fun ~dst_key:_ ~version:_ ~src_key:_ _ -> ());
          send_dep_write = (fun ~key:_ ~version:_ _ -> ());
          notify_final = (fun ~key:_ ~version:_ ~pending:_ ~final:_ -> ());
          exec = (fun ~cost k -> Sim.Worker_pool.submit pool ~cost k);
          now = (fun () -> Sim.Engine.now sim) }
      in
      let metrics = Sim.Metrics.create () in
      let e =
        Engine.create ~registry ~callbacks ~compute_cost_us:1 ~metrics ()
      in
      let k = ik "rx:k" and j = ik "rx:j" and other = ik "rx:other" in
      List.iter (fun key -> Engine.load_initial e ~key (Value.int 0)) [ k; j ];
      Engine.load_initial e ~key:other (Value.int 7);
      let add = (Ftype.Add, Funct.farg_args [ Value.int 1 ]) in
      let k_ops =
        [ add; add; add;
          (Ftype.User "flaky", Funct.farg_args [ Value.int 10 ]);
          add;
          (Ftype.User "copy", { Funct.farg_empty with read_set = [ other ] });
          add; add ]
      in
      let items = ref [] in
      let install key version (ftype, farg) =
        let funct = Funct.mk_pending ~ftype ~farg ~txn_id:version ~coordinator:0 in
        (match Engine.install e ~key ~version ~lo:0 ~hi:max_int funct with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "install failed");
        items := { Functor_cc.Processor.key; version } :: !items
      in
      List.iteri (fun i op -> install k (i + 1) op) k_ops;
      List.iter (fun v -> install j v add) [ 1; 2; 3; 4 ];
      let rpool = Pool.create ~domains in
      let planner =
        Functor_cc.Planner.create ~engine:e ~pool ~real:rpool
          ~dispatch_cost_us:1 ~metrics ()
      in
      ignore (Functor_cc.Planner.run planner ~items:(List.rev !items));
      let name fmt = Printf.sprintf ("%d domain(s): " ^^ fmt) domains in
      Alcotest.(check int) (name "one task raised") 1 (Pool.tasks_raised rpool);
      Alcotest.(check int)
        (name "evaluated: k@1-3 and j@1-4") 7
        (Sim.Metrics.get metrics "plan.real_evaluated");
      Alcotest.(check int)
        (name "released: the raiser and the staged reader") 2
        (Sim.Metrics.get metrics "plan.real_fallback");
      let chain = Option.get (Mvstore.Table.chain (Engine.table e) k) in
      let state v =
        match (Option.get (Mvstore.Chain.find_exact chain ~version:v)).Funct.state with
        | Funct.Final _ -> `Final
        | Funct.Pending { Funct.status = Funct.Installed; _ } -> `Installed
        | Funct.Pending { Funct.status = Funct.Computing; _ } -> `Computing
      in
      Alcotest.(check bool)
        (name "k@1-3 final, k@4-8 back to or still installed") true
        (List.map state [ 1; 2; 3; 4; 5; 6; 7; 8 ]
        = [ `Final; `Final; `Final; `Installed; `Installed; `Installed;
            `Installed; `Installed ]);
      Sim.Engine.run sim;
      Pool.shutdown rpool;
      let value key v =
        let r = ref None in
        Engine.get e ~key ~version:v (fun x -> r := x);
        match !r with Some x -> Value.to_int x | None -> -1
      in
      Alcotest.(check (list int))
        (name "k after the sequential fallback")
        [ 1; 2; 3; 10; 11; 7; 8; 9 ]
        (List.map (value k) [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
      Alcotest.(check int) (name "j unaffected") 4 (value j 4);
      Alcotest.(check int) (name "nothing pending") 0 (Engine.pending_count e))
    [ 1; 2 ]

(* ---- real planner: completion tracking and the commit ------------------- *)

(* One plan through the planner on the simulated runtime ([domains] = 0)
   or on the real one, with synchronous push / dependent-write delivery
   and immediate [exec], over one simulated worker: every node computed
   by the simulated dispatch finalises inside its own dispatch job. *)
type plan_run = {
  metrics : Sim.Metrics.t;
  finals : (string * int * Funct.final) list;  (* notify_final, sorted *)
  evaluated : (int * int) list;  (* on_evaluated: elapsed_us, sim time *)
}

let run_plan ~domains setup =
  let sim = Sim.Engine.create () in
  let pool = Sim.Worker_pool.create sim ~workers:1 in
  let registry = Registry.with_builtins () in
  let finals = ref [] in
  let engine = ref None in
  let callbacks =
    { Engine.is_local = (fun _ -> true);
      remote_get = (fun ~key:_ ~version:_ k -> k None);
      send_push =
        (fun ~dst_key ~version ~src_key v ->
          Engine.deliver_push (Option.get !engine) ~key:dst_key ~version
            ~src_key v);
      send_dep_write =
        (fun ~key ~version final ->
          Engine.deliver_dep_write (Option.get !engine) ~key ~version ~final);
      notify_final =
        (fun ~key ~version ~pending:_ ~final ->
          finals := (Mvstore.Key.name key, version, final) :: !finals);
      exec = (fun ~cost:_ k -> k ());
      now = (fun () -> Sim.Engine.now sim) }
  in
  let metrics = Sim.Metrics.create () in
  let e = Engine.create ~registry ~callbacks ~compute_cost_us:1 ~metrics () in
  engine := Some e;
  let install key version ftype farg =
    let key = ik key in
    (match
       Engine.install e ~key ~version ~lo:0 ~hi:max_int
         (Funct.mk_pending ~ftype ~farg ~txn_id:version ~coordinator:0)
     with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "install failed");
    { Functor_cc.Processor.key; version }
  in
  let items = setup registry e install in
  let rpool = if domains > 0 then Some (Pool.create ~domains) else None in
  let evaluated = ref [] in
  let planner =
    Functor_cc.Planner.create ~engine:e ~pool ?real:rpool ~dispatch_cost_us:1
      ~metrics
      ~now:(fun () -> Sim.Engine.now sim)
      ~on_evaluated:(fun ~elapsed_us ->
        evaluated := (elapsed_us, Sim.Engine.now sim) :: !evaluated)
      ()
  in
  ignore (Functor_cc.Planner.run planner ~items);
  Sim.Engine.run sim;
  Option.iter Pool.shutdown rpool;
  Alcotest.(check int) "nothing left pending" 0 (Engine.pending_count e);
  { metrics; finals = List.sort compare !finals; evaluated = List.rev !evaluated }

let evaluate_samples r =
  match Sim.Metrics.latency r.metrics "plan.evaluate_us" with
  | None -> []
  | Some h ->
      if Sim.Stats.Histogram.count h = 0 then []
      else
        List.init (Sim.Stats.Histogram.count h) (fun _ ->
            Sim.Stats.Histogram.max h)

let adds ~prefix ~keys ~versions install =
  List.concat_map
    (fun v ->
      List.init keys (fun k ->
          install (Printf.sprintf "%s%d" prefix k) v Ftype.Add
            (Funct.farg_args [ Value.int v ])))
    (List.init versions (fun v -> v + 1))

(* Domains evaluate the whole plan: it completes inside [Planner.run], so
   it records one sample of 0 and calls [on_evaluated] once, at once. *)
let test_completion_all_on_domains () =
  List.iter
    (fun domains ->
      let r =
        run_plan ~domains (fun registry e install ->
            ignore registry;
            for k = 0 to 2 do
              Engine.load_initial e ~key:(ik (Printf.sprintf "ca:%d" k))
                (Value.int 0)
            done;
            adds ~prefix:"ca:" ~keys:3 ~versions:5 install)
      in
      Alcotest.(check int) "all on domains" 15
        (Sim.Metrics.get r.metrics "plan.real_evaluated");
      Alcotest.(check (list int)) "one sample of 0" [ 0 ] (evaluate_samples r);
      Alcotest.(check (list (pair int int))) "one callback, at once"
        [ (0, 0) ] r.evaluated)
    [ 1; 2 ]

(* One node the stager rejects (a missing handler), dispatched last: the
   plan completes when the simulated dispatch aborts it, at the same time
   as under the simulated runtime. *)
let test_completion_rejected_node () =
  let setup _registry e install =
    for k = 0 to 1 do
      Engine.load_initial e ~key:(ik (Printf.sprintf "cr:%d" k)) (Value.int 0)
    done;
    adds ~prefix:"cr:" ~keys:2 ~versions:4 install
    @ [ install "cr:x" 9 (Ftype.User "cr-absent") Funct.farg_empty ]
  in
  let sim = run_plan ~domains:0 setup in
  Alcotest.(check (list int)) "sim: one sample, the last dispatch" [ 9 ]
    (evaluate_samples sim);
  List.iter
    (fun domains ->
      let real = run_plan ~domains setup in
      Alcotest.(check int) "the rest on domains" 8
        (Sim.Metrics.get real.metrics "plan.real_evaluated");
      Alcotest.(check (list int)) "same sample" (evaluate_samples sim)
        (evaluate_samples real);
      Alcotest.(check (list (pair int int))) "same callback and time"
        sim.evaluated real.evaluated;
      Alcotest.(check bool) "same finals" true (sim.finals = real.finals))
    [ 1; 2 ]

(* Built-ins with recipients, plain built-ins, and user functors with a
   declared dependent (behind a Dep_marker) and a dynamic one, some of
   which abort: the real commit gives the simulated runtime's counters
   and the same notify_final calls. *)
let test_commit_mixed_plan () =
  let setup registry e install =
    Registry.register registry "cm-det" (fun ctx ->
        let x = Value.to_int (Option.get (Registry.read ctx "cm:acct")) in
        if x mod 3 = 1 then Registry.Abort
        else
          Registry.Commit_det
            ( Value.int x,
              [ ("cm:dep", Registry.Dep_put (Value.int (2 * x)));
                (Printf.sprintf "cm:log%d" ctx.Registry.version,
                 Registry.Dep_put (Value.int x)) ] ));
    List.iter
      (fun k -> Engine.load_initial e ~key:(ik k) (Value.int 0))
      [ "cm:acct"; "cm:ctl"; "cm:dep"; "cm:plain" ];
    let acct = ik "cm:acct" and ctl = ik "cm:ctl" and dep = ik "cm:dep" in
    List.concat_map
      (fun v ->
        [ install "cm:acct" v Ftype.Add
            { (Funct.farg_args [ Value.int v ]) with
              Funct.recipients = [ ctl ] };
          install "cm:ctl" v (Ftype.User "cm-det")
            { Funct.farg_empty with
              read_set = [ acct ]; pushed_reads = [ acct ];
              dependents = [ dep ] };
          install "cm:dep" v (Ftype.Dep_marker ctl) Funct.farg_empty;
          install "cm:plain" v Ftype.Add (Funct.farg_args [ Value.int 1 ]) ])
      [ 1; 2; 3; 4; 5; 6 ]
  in
  let counters r =
    List.map
      (fun name -> (name, Sim.Metrics.get r.metrics name))
      [ "fcc.computed"; "fcc.pushes_sent"; "fcc.aborts_computed";
        "fcc.dep_writes_resolved"; "fcc.dep_write_duplicate";
        "fcc.dep_write_direct" ]
  in
  let sim = run_plan ~domains:0 setup in
  Alcotest.(check int) "sim: two aborts, each with its marker" 4
    (Sim.Metrics.get sim.metrics "fcc.aborts_computed");
  List.iter
    (fun domains ->
      let real = run_plan ~domains setup in
      Alcotest.(check bool) "built-ins and user functors on domains" true
        (Sim.Metrics.get real.metrics "plan.real_evaluated" >= 18);
      Alcotest.(check (list (pair string int))) "same counters"
        (counters sim) (counters real);
      Alcotest.(check bool) "same notify_final multiset" true
        (sim.finals = real.finals))
    [ 1; 2 ]

let suite =
  [ Alcotest.test_case "run_batch barrier" `Quick test_batch_barrier;
    Alcotest.test_case "work stealing under skew" `Quick test_work_stealing;
    Alcotest.test_case "shutdown drains pending work" `Quick test_shutdown;
    Alcotest.test_case "1 vs 8 domains deterministic" `Quick
      test_domain_count_determinism;
    Alcotest.test_case "1 domain runs on the caller" `Quick
      test_one_domain_caller_runs;
    Alcotest.test_case "raising handler falls back mid-run" `Quick
      test_raise_mid_run;
    Alcotest.test_case "plan completes on domains" `Quick
      test_completion_all_on_domains;
    Alcotest.test_case "rejected node completes as under sim" `Quick
      test_completion_rejected_node;
    Alcotest.test_case "mixed plan commits as under sim" `Quick
      test_commit_mixed_plan ]
