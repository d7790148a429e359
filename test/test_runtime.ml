(* The real-parallelism runtime: the domain pool in isolation (barrier
   semantics, one fork-join over a shared chunk cursor, per-task raise
   isolation, shutdown discipline, the caller as worker slot 0) and the
   end-to-end guarantees the planner builds on it — evaluating an epoch's
   key runs on 1 domain and on 8 domains is observationally identical, and
   a handler that raises mid-run leaves no record claimed. *)

module Pool = Runtime.Pool
module Value = Functor_cc.Value
module Ftype = Functor_cc.Ftype
module Funct = Functor_cc.Funct
module Registry = Functor_cc.Registry
module Engine = Functor_cc.Compute_engine

let ik = Mvstore.Key.intern

(* ---- pool: run_batch barrier -------------------------------------------- *)

(* run_batch must be a full barrier: every task's plain writes are visible
   to the caller when it returns, and to the tasks of any later batch.  A
   second batch sums the first batch's writes from worker domains — if the
   barrier leaked, a worker could observe a zero slot. *)
let test_batch_barrier () =
  let p = Pool.create ~domains:4 in
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
    "at most 4 domains ran tasks" true
    (List.length (List.sort_uniq compare (Array.to_list ran_on)) <= 4);
  let sums = Array.make 8 0 in
  Pool.run_batch p
    (Array.init 8 (fun w () -> sums.(w) <- Array.fold_left ( + ) 0 a));
  Array.iteri
    (fun w s ->
      Alcotest.(check int) (Printf.sprintf "batch 2 reader %d" w) expect s)
    sums;
  Pool.shutdown p

(* ---- pool: a raising task ----------------------------------------------- *)

(* 64 tasks on 2 domains are 8 chunks of 8.  Task 3 raises: it is counted,
   the seven other tasks of its chunk still run, and the pool takes the
   next batch. *)
let test_raising_task () =
  let p = Pool.create ~domains:2 in
  let ran = Array.make 64 false in
  Pool.run_batch p
    (Array.init 64 (fun i () ->
         if i = 3 then failwith "boom";
         ran.(i) <- true));
  Alcotest.(check int) "raise counted" 1 (Pool.tasks_raised p);
  Alcotest.(check int) "chunks completed" 8 (Pool.completed p);
  Array.iteri
    (fun i r ->
      if i <> 3 then Alcotest.(check bool) (Printf.sprintf "task %d ran" i) true r)
    ran;
  let hits = Atomic.make 0 in
  Pool.run_batch p (Array.make 16 (fun () -> Atomic.incr hits));
  Alcotest.(check int) "pool usable after a raise" 16 (Atomic.get hits);
  Pool.shutdown p

(* ---- pool: skew self-levels --------------------------------------------- *)

(* 8 tasks on 2 domains are 8 chunks of one task, home slots alternating.
   Chunk 0 holds its domain until every other task has run, so the other
   domain runs chunks 1..7, whose home slots include both slots: whichever
   domain claims chunk 0, some chunk runs away from home.  The wait is
   bounded so a pool that cannot level fails the check instead of
   hanging. *)
let test_work_stealing () =
  let p = Pool.create ~domains:2 in
  let n = 8 in
  let others = Atomic.make 0 and levelled = ref false in
  Pool.run_batch p
    (Array.init n (fun i () ->
         if i = 0 then begin
           let deadline = Unix.gettimeofday () +. 10. in
           while Atomic.get others < n - 1 && Unix.gettimeofday () < deadline do
             Domain.cpu_relax ()
           done;
           levelled := Atomic.get others = n - 1
         end
         else Atomic.incr others));
  Alcotest.(check bool) "the other domain ran every other chunk" true !levelled;
  Alcotest.(check int) "completed counter" n (Pool.completed p);
  Alcotest.(check bool)
    (Printf.sprintf "stolen > 0 (got %d)" (Pool.stolen p))
    true
    (Pool.stolen p > 0);
  Alcotest.(check int) "worker stats sum to the total" (Pool.completed p)
    (Array.fold_left ( + ) 0 (Pool.worker_stats p));
  Pool.shutdown p

(* ---- pool: shutdown discipline ------------------------------------------ *)

let test_shutdown () =
  let p = Pool.create ~domains:2 in
  let hits = Atomic.make 0 in
  Pool.run_batch p (Array.make 8 (fun () -> Atomic.incr hits));
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  Alcotest.(check int) "the batch ran before shutdown" 8 (Atomic.get hits);
  Alcotest.check_raises "run_batch after shutdown"
    (Invalid_argument "Runtime.Pool.run_batch: pool is shut down") (fun () ->
      Pool.run_batch p [| (fun () -> ()) |]);
  Alcotest.check_raises "create with 0 domains"
    (Invalid_argument "Runtime.Pool.create: domains < 1") (fun () ->
      ignore (Pool.create ~domains:0))

(* ---- pool: one domain is the caller alone -------------------------------- *)

(* [~domains:1] spawns nothing: every chunk of [run_batch] runs on the
   calling domain, at home, so nothing counts as stolen. *)
let test_one_domain_caller_runs () =
  let p = Pool.create ~domains:1 in
  let self = (Domain.self () :> int) in
  let others = Atomic.make 0 and hits = Atomic.make 0 in
  let task () =
    Atomic.incr hits;
    if (Domain.self () :> int) <> self then Atomic.incr others
  in
  Pool.run_batch p (Array.make 64 task);
  Pool.run_batch p (Array.make 3 task);
  Alcotest.(check int) "run_batch ran everything" 67 (Atomic.get hits);
  Alcotest.(check int) "every task ran on the caller" 0 (Atomic.get others);
  (* four chunks for the first batch, one per task for the second *)
  Alcotest.(check (array int)) "one worker, 7 chunks" [| 7 |]
    (Pool.worker_stats p);
  Alcotest.(check int) "none stolen" 0 (Pool.stolen p);
  Pool.shutdown p

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
            Sim.Stats.Histogram.percentile h 100.0)

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

(* The bind pass folds a node only over final records.  ADD 1 at v3 is
   bound first, above a blind VALUE 5 at v2 and a user functor at v1
   bound after it: v3 must not be folded over the VALUE while v1 is
   pending, so neither is, and the key's one run evaluates both on the
   domains, v1 then v3. *)
let test_fold_waits_for_pending_below () =
  let setup registry e install =
    Registry.register registry "fp-put" (fun ctx ->
        Registry.Commit (Registry.arg ctx 0));
    Engine.load_initial e ~key:(ik "fp:k") (Value.int 0);
    let v3 = install "fp:k" 3 Ftype.Add (Funct.farg_args [ Value.int 1 ]) in
    let v1 =
      install "fp:k" 1 (Ftype.User "fp-put") (Funct.farg_args [ Value.int 10 ])
    in
    (match
       Engine.install e ~key:(ik "fp:k") ~version:2 ~lo:0 ~hi:max_int
         (Funct.mk_final (Funct.Committed (Value.int 5)))
     with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "install failed");
    [ v3; v1 ]
  in
  List.iter
    (fun domains ->
      let r = run_plan ~domains setup in
      Alcotest.(check int) "both evaluated on the domains" 2
        (Sim.Metrics.get r.metrics "plan.real_evaluated");
      Alcotest.(check bool) "v1 = 10, v3 = VALUE 5 + 1" true
        (r.finals
        = [ ("fp:k", 1, Funct.Committed (Value.int 10));
            ("fp:k", 3, Funct.Committed (Value.int 6)) ]))
    [ 1; 2 ]

(* User functors with recipients, plain built-ins, and user functors with
   a declared dependent (behind a Dep_marker) and a dynamic one, some of
   which abort: the real commit gives the simulated runtime's counters
   and the same notify_final calls. *)
let test_commit_mixed_plan () =
  let setup registry e install =
    Registry.register registry "cm-put" (fun ctx ->
        Registry.Commit (Registry.arg ctx 0));
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
        [ install "cm:acct" v (Ftype.User "cm-put")
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

(* A built-in with recipients is not plain: the fold refuses it, so its
   run leaves it to the simulated dispatch (no fallback: it was never
   claimed), which computes it and sends its push.  The ADD below
   it is folded in the bind pass, and the reader of its key above it
   reads that ADD's value on the domains.  Every value and the push
   count end as under the simulated runtime. *)
let test_builtin_with_recipients_to_dispatch () =
  let setup registry e install =
    Registry.register registry "br-read" (fun ctx ->
        match Registry.read ctx "br:a" with
        | Some v -> Registry.Commit v
        | None -> Registry.Abort);
    List.iter
      (fun k -> Engine.load_initial e ~key:(ik k) (Value.int 0))
      [ "br:a"; "br:u" ];
    let a = ik "br:a" and u = ik "br:u" in
    [ install "br:a" 1 Ftype.Add (Funct.farg_args [ Value.int 5 ]);
      install "br:a" 2 Ftype.Add
        { (Funct.farg_args [ Value.int 3 ]) with Funct.recipients = [ u ] };
      install "br:u" 2 (Ftype.User "br-read")
        { Funct.farg_empty with read_set = [ a ]; pushed_reads = [ a ] } ]
  in
  let sim = run_plan ~domains:0 setup in
  List.iter
    (fun domains ->
      let real = run_plan ~domains setup in
      Alcotest.(check int) "the ADD with recipients never claimed" 0
        (Sim.Metrics.get real.metrics "plan.real_fallback");
      Alcotest.(check int) "the plain ADD and the reader on the domains" 2
        (Sim.Metrics.get real.metrics "plan.real_evaluated");
      Alcotest.(check int) "one push, as under sim"
        (Sim.Metrics.get sim.metrics "fcc.pushes_sent")
        (Sim.Metrics.get real.metrics "fcc.pushes_sent");
      Alcotest.(check bool) "a@2 = 8, u@2 = 5, as under sim" true
        (real.finals = sim.finals
        && List.mem ("br:a", 2, Funct.Committed (Value.int 8)) real.finals
        && List.mem ("br:u", 2, Funct.Committed (Value.int 5)) real.finals))
    [ 1; 2 ]

(* ---- real planner: the per-key fold against the simulated runtime ------ *)

(* One version of a built-in key in a random plan. *)
type fold_version =
  | Builtin of Ftype.t * int  (* a built-in with its argument *)
  | Pushing of int  (* an ADD with recipients: the fold refuses it *)
  | User of int
      (* a user functor without a read set: it writes its argument, or
         aborts when that is negative, and stops the key's fold *)
  | Blind of int option  (* VALUE (Some) or DELETE (None), installed final *)
  | Aborted  (* installed pending, aborted in-epoch before the plan *)
  | Below  (* a pending ADD installed, but left out of the plan *)
  | Gap  (* no version *)

type fold_spec = {
  keys : fold_version array array;  (* built-in key k at versions 1.. *)
  initial : int option array;  (* key k's version-0 value *)
  readers : (int * int * int) list;
      (* reader j: its version, the built-in key it reads, its argument *)
  marker : int option;  (* a Dep_marker and its determinate functor's version *)
  shuffle : int;  (* install order seed *)
}

let print_fold_spec s =
  let v = function
    | Builtin (f, a) ->
        let name =
          match f with
          | Ftype.Add -> "ADD"
          | Ftype.Subtr -> "SUBTR"
          | Ftype.Max -> "MAX"
          | Ftype.Min -> "MIN"
          | _ -> "?"
        in
        Printf.sprintf "%s %d" name a
    | Pushing a -> Printf.sprintf "ADD %d, pushing" a
    | User a -> Printf.sprintf "USER %d" a
    | Blind (Some x) -> Printf.sprintf "VALUE %d" x
    | Blind None -> "DELETE"
    | Aborted -> "aborted"
    | Below -> "below"
    | Gap -> "-"
  in
  String.concat "\n"
    (Array.to_list
       (Array.mapi
          (fun k vs ->
            Printf.sprintf "pf:b%d init %s: %s" k
              (match s.initial.(k) with Some x -> string_of_int x | None -> "-")
              (String.concat ", " (Array.to_list (Array.map v vs))))
          s.keys)
    @ List.mapi
        (fun j (ver, k, a) -> Printf.sprintf "pf:r%d@%d reads pf:b%d, +%d" j ver k a)
        s.readers
    @ [ (match s.marker with
        | Some v -> Printf.sprintf "marker@%d" v
        | None -> "no marker");
        Printf.sprintf "shuffle %d" s.shuffle ])

let gen_fold_spec =
  let open QCheck2.Gen in
  let version =
    frequency
      [ (12,
         map2
           (fun f a -> Builtin (f, a))
           (oneofl [ Ftype.Add; Ftype.Add; Ftype.Subtr; Ftype.Max; Ftype.Min ])
           (int_range (-5) 9));
        (1,
         map
           (fun f -> Builtin (f, 1 lsl 61))
           (oneofl [ Ftype.Add; Ftype.Max ]));
        (2, map (fun a -> Pushing a) (int_range (-5) 9));
        (2, map (fun a -> User a) (int_range (-2) 9));
        (2, map (fun x -> Blind (Some x)) (int_range 0 20));
        (1, return (Blind (Some (1 lsl 61))));
        (1, return (Blind None));
        (1, return Aborted);
        (1, return Below);
        (3, return Gap) ]
  in
  let* n_keys = int_range 1 3 in
  let* keys = array_repeat n_keys (array_size (int_range 1 12) version) in
  let* initial = array_repeat n_keys (opt (int_range 0 9)) in
  let* readers =
    list_size (int_range 0 2)
      (triple (int_range 1 13) (int_range 0 (n_keys - 1)) (int_range 0 9))
  in
  let* marker = opt (int_range 1 12) in
  let* shuffle = int in
  return { keys; initial; readers; marker; shuffle }

(* What a plan leaves behind: [notify_final] in call order, every key's
   records (final value, or [None] while pending), watermarks, and the
   real runtime's evaluated and fallback counts. *)
type fold_outcome = {
  notified : (string * int * Funct.final) list;
  pushes : (string * int * string * Value.t option) list;  (* sorted *)
  records : (string * (int * Funct.final option) list) list;
  watermarks : (string * int) list;
  real_evaluated : int;
  real_fallback : int;
}

(* The plan of [spec] on the simulated runtime ([domains] = 0) or on the
   real one, with synchronous dependent writes and immediate [exec] over
   one simulated worker, as [run_plan]; a version left out of the plan
   may keep its key pending. *)
let run_fold_plan ~domains spec =
  let sim = Sim.Engine.create () in
  let pool = Sim.Worker_pool.create sim ~workers:1 in
  let registry = Registry.with_builtins () in
  Registry.register registry "pf-read" (fun ctx ->
      match ctx.Registry.reads with
      | [ (_, Some (Value.Int x)) ] ->
          Registry.Commit (Value.int (x + Value.to_int (Registry.arg ctx 0)))
      | _ -> Registry.Abort);
  Registry.register registry "pf-put" (fun ctx ->
      let a = Value.to_int (Registry.arg ctx 0) in
      if a < 0 then Registry.Abort else Registry.Commit (Value.int a));
  Registry.register registry "pf-det" (fun ctx ->
      let a = Value.to_int (Registry.arg ctx 0) in
      Registry.Commit_det
        (Value.int a, [ ("pf:m", Registry.Dep_put (Value.int (2 * a))) ]));
  let notified = ref [] and pushes = ref [] and engine = ref None in
  let callbacks =
    { Engine.is_local = (fun _ -> true);
      remote_get = (fun ~key:_ ~version:_ k -> k None);
      send_push =
        (fun ~dst_key ~version ~src_key v ->
          pushes :=
            (Mvstore.Key.name dst_key, version, Mvstore.Key.name src_key, v)
            :: !pushes);
      send_dep_write =
        (fun ~key ~version final ->
          Engine.deliver_dep_write (Option.get !engine) ~key ~version ~final);
      notify_final =
        (fun ~key ~version ~pending:_ ~final ->
          notified := (Mvstore.Key.name key, version, final) :: !notified);
      exec = (fun ~cost:_ k -> k ());
      now = (fun () -> Sim.Engine.now sim) }
  in
  let metrics = Sim.Metrics.create () in
  let e = Engine.create ~registry ~callbacks ~compute_cost_us:1 ~metrics () in
  engine := Some e;
  let bkey k = Printf.sprintf "pf:b%d" k in
  Array.iteri
    (fun k init ->
      Option.iter (fun x -> Engine.load_initial e ~key:(ik (bkey k)) (Value.int x)) init)
    spec.initial;
  (* installs: (key, version, record, in the plan, aborted before it) *)
  let pending ftype farg = Funct.mk_pending ~ftype ~farg ~txn_id:0 ~coordinator:0 in
  let installs = ref [] in
  let add key version record ~planned ~aborted =
    installs := (key, version, record, planned, aborted) :: !installs
  in
  Array.iteri
    (fun k vs ->
      Array.iteri
        (fun i v ->
          let add = add (bkey k) (i + 1) in
          let adds x = pending Ftype.Add (Funct.farg_args [ Value.int x ]) in
          match v with
          | Builtin (f, a) ->
              add (pending f (Funct.farg_args [ Value.int a ])) ~planned:true
                ~aborted:false
          | Pushing a ->
              add
                (pending Ftype.Add
                   { (Funct.farg_args [ Value.int a ]) with
                     Funct.recipients = [ ik "pf:sink" ] })
                ~planned:true ~aborted:false
          | User a ->
              add
                (pending (Ftype.User "pf-put") (Funct.farg_args [ Value.int a ]))
                ~planned:true ~aborted:false
          | Blind (Some x) ->
              add (Funct.mk_final (Funct.Committed (Value.int x))) ~planned:true
                ~aborted:false
          | Blind None ->
              add (Funct.mk_final Funct.Deleted_v) ~planned:true ~aborted:false
          | Aborted -> add (adds 1) ~planned:true ~aborted:true
          | Below -> add (adds 1) ~planned:false ~aborted:false
          | Gap -> ())
        vs)
    spec.keys;
  List.iteri
    (fun j (ver, k, a) ->
      add (Printf.sprintf "pf:r%d" j) ver
        (pending (Ftype.User "pf-read")
           { (Funct.farg_args [ Value.int a ]) with
             Funct.read_set = [ ik (bkey k) ] })
        ~planned:true ~aborted:false)
    spec.readers;
  Option.iter
    (fun v ->
      add "pf:m" v (pending (Ftype.Dep_marker (ik "pf:d")) Funct.farg_empty)
        ~planned:true ~aborted:false;
      add "pf:d" v
        (pending (Ftype.User "pf-det")
           { (Funct.farg_args [ Value.int v ]) with
             Funct.dependents = [ ik "pf:m" ] })
        ~planned:true ~aborted:false)
    spec.marker;
  (* Out-of-order installs: a seeded shuffle of every install. *)
  let installs = Array.of_list (List.rev !installs) in
  let rng = Random.State.make [| spec.shuffle |] in
  for i = Array.length installs - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = installs.(i) in
    installs.(i) <- installs.(j);
    installs.(j) <- x
  done;
  let items =
    Array.to_list installs
    |> List.filter_map (fun (key, version, record, planned, _) ->
           (match Engine.install e ~key:(ik key) ~version ~lo:0 ~hi:max_int record with
           | Ok () -> ()
           | Error _ -> Alcotest.fail "install failed");
           if planned then Some { Functor_cc.Processor.key = ik key; version }
           else None)
  in
  Array.iter
    (fun (key, version, _, _, aborted) ->
      if aborted then Engine.abort_version e ~key:(ik key) ~version)
    installs;
  let rpool = if domains > 0 then Some (Pool.create ~domains) else None in
  let planner =
    Functor_cc.Planner.create ~engine:e ~pool ?real:rpool ~dispatch_cost_us:1
      ~metrics ~now:(fun () -> Sim.Engine.now sim) ()
  in
  ignore (Functor_cc.Planner.run planner ~items);
  Sim.Engine.run sim;
  Option.iter Pool.shutdown rpool;
  let names =
    List.sort_uniq compare
      (Array.to_list (Array.map (fun (key, _, _, _, _) -> key) installs)
      @ List.init (Array.length spec.keys) bkey)
  in
  let chain name = Mvstore.Table.chain (Engine.table e) (ik name) in
  let records name =
    match chain name with
    | None -> []
    | Some c ->
        Mvstore.Chain.fold c ~init:[] ~f:(fun acc v r ->
            (v, match r.Funct.state with Funct.Final f -> Some f | Funct.Pending _ -> None)
            :: acc)
        |> List.rev
  in
  { notified = List.rev !notified;
    pushes = List.sort compare !pushes;
    records = List.map (fun name -> (name, records name)) names;
    watermarks = List.map (fun name -> (name, Engine.watermark e ~key:(ik name))) names;
    real_evaluated = Sim.Metrics.get metrics "plan.real_evaluated";
    real_fallback = Sim.Metrics.get metrics "plan.real_fallback" }

(* qcheck: random plans whose built-in runs have gaps (blind VALUE/DELETE
   versions installed final, an aborted version, a pending version left
   out of the plan), user functors without a read set (where the bind
   pass's fold of the key stops, mid-segment), and built-ins the fold
   refuses (ADDs with recipients, arguments wider than 60 bits, results
   over a VALUE that wide), which the commit releases to the dispatch;
   installed out of order, with a
   Dep_marker and user functors that read built-in keys.  The real
   runtime at 1 and at 2 domains leaves every record and watermark as
   the simulated runtime does, sends the same pushes and makes the same
   [notify_final] calls; the two domain counts
   make them in the same order and agree on the evaluated and fallback
   counts.  (Against the simulated runtime only the calls, not their
   order, can agree: it evaluates on demand in dispatch order, so a key
   above a blind write can notify before the versions below it.)  A
   fold that takes the previous node's result without checking that it
   is the chain predecessor fails this. *)
let prop_fold_matches_sim =
  QCheck2.Test.make ~name:"real fold = sim on random plans" ~count:150
    ~print:print_fold_spec gen_fold_spec (fun spec ->
      let sim = run_fold_plan ~domains:0 spec in
      let one = run_fold_plan ~domains:1 spec in
      let two = run_fold_plan ~domains:2 spec in
      let same_as_sim o =
        o.records = sim.records
        && o.watermarks = sim.watermarks
        && o.pushes = sim.pushes
        && List.sort compare o.notified = List.sort compare sim.notified
      in
      same_as_sim one && same_as_sim two
      && one.notified = two.notified
      && one.real_evaluated = two.real_evaluated
      && one.real_fallback = two.real_fallback)

(* ---- real planner: silent dispatch and allocation ----------------------- *)

(* [ops] ADD-1 functors over [keys] keys (key [i mod keys] at version
   [i / keys + 1]; with [~lead], one version higher, above a user functor
   without a read set that puts 0 at version 1), plus, with [~rejected],
   one user functor with no registered handler, which the stager leaves
   to the dispatch.  The items are in install order, or, with
   [~newest_first], reversed.  Returns the simulator, its 4-worker
   pool's planner on a [domains]-domain real pool, the real pool and the
   items. *)
let adds_plan ?(metrics = Sim.Metrics.create ()) ?(lead = false)
    ?(newest_first = false) ~domains ~keys ~ops ~rejected () =
  let sim = Sim.Engine.create () in
  let pool = Sim.Worker_pool.create sim ~workers:4 in
  let callbacks =
    { Engine.is_local = (fun _ -> true);
      remote_get = (fun ~key:_ ~version:_ k -> k None);
      send_push = (fun ~dst_key:_ ~version:_ ~src_key:_ _ -> ());
      send_dep_write = (fun ~key:_ ~version:_ _ -> ());
      notify_final = (fun ~key:_ ~version:_ ~pending:_ ~final:_ -> ());
      exec = (fun ~cost k -> Sim.Worker_pool.submit pool ~cost k);
      now = (fun () -> Sim.Engine.now sim) }
  in
  let registry = Registry.with_builtins () in
  Registry.register registry "sd-put" (fun ctx ->
      Registry.Commit (Registry.arg ctx 0));
  let e = Engine.create ~registry ~callbacks ~compute_cost_us:1 ~metrics () in
  let key i = ik (Printf.sprintf "sd:%d" i) in
  for i = 0 to keys - 1 do
    Engine.load_initial e ~key:(key i) (Value.int 0)
  done;
  let install key version ftype farg =
    (match
       Engine.install e ~key ~version ~lo:0 ~hi:max_int
         (Funct.mk_pending ~ftype ~farg ~txn_id:version ~coordinator:0)
     with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "install failed");
    { Functor_cc.Processor.key; version }
  in
  let base = if lead then 1 else 0 in
  let items =
    List.init (base * keys) (fun i ->
        install (key i) 1 (Ftype.User "sd-put")
          (Funct.farg_args [ Value.int 0 ]))
    @ List.init ops (fun i ->
          install (key (i mod keys)) ((i / keys) + 1 + base) Ftype.Add
            (Funct.farg_args [ Value.int 1 ]))
    @
    if rejected then
      [ install (ik "sd:x") 1 (Ftype.User "sd-absent") Funct.farg_empty ]
    else []
  in
  let items = if newest_first then List.rev items else items in
  let rpool = Pool.create ~domains in
  let planner =
    Functor_cc.Planner.create ~engine:e ~pool ~real:rpool ~dispatch_cost_us:1
      ~metrics ()
  in
  (sim, planner, rpool, items)

(* A plan the domains evaluated completely leaves every dispatch job a
   no-op, so its run is silent: one completion per simulated worker
   lane, not one per item.  A plan with a node left to the dispatch keeps
   one event per job. *)
let test_silent_dispatch () =
  let sim, planner, rpool, items =
    adds_plan ~domains:2 ~keys:16 ~ops:1000 ~rejected:false ()
  in
  ignore (Functor_cc.Planner.run planner ~items);
  Sim.Engine.run sim;
  Pool.shutdown rpool;
  Alcotest.(check bool) "at most one event per worker lane" true
    (Sim.Engine.events_fired sim <= 4);
  Alcotest.(check int) "ends when the last job would" 250 (Sim.Engine.now sim);
  let sim, planner, rpool, items =
    adds_plan ~domains:2 ~keys:16 ~ops:1000 ~rejected:true ()
  in
  ignore (Functor_cc.Planner.run planner ~items);
  Sim.Engine.run sim;
  Pool.shutdown rpool;
  Alcotest.(check int) "a fallback node: one event per job" 1001
    (Sim.Engine.events_fired sim)

(* The bind pass folds an ADD-only plan whole: no level runs a batch, so
   the pool completes no chunk, every node counts as evaluated, and the
   dispatch is silent. *)
let test_folded_plan_runs_no_batch () =
  let metrics = Sim.Metrics.create () in
  let sim, planner, rpool, items =
    adds_plan ~metrics ~domains:2 ~keys:16 ~ops:1000 ~rejected:false ()
  in
  let stats = Functor_cc.Planner.run planner ~items in
  Sim.Engine.run sim;
  let completed = Pool.completed rpool in
  Pool.shutdown rpool;
  Alcotest.(check int) "no chunk ran" 0 completed;
  Alcotest.(check int) "every node evaluated" stats.Functor_cc.Planner.nodes
    (Sim.Metrics.get metrics "plan.real_evaluated");
  Alcotest.(check int) "the level still counts" 1
    (Sim.Metrics.get metrics "plan.real_strata");
  Alcotest.(check bool) "silent dispatch" true (Sim.Engine.events_fired sim <= 4)

(* Plain built-ins allocate nothing per node on either fold's path: the
   bind pass, which folds an ADD-only plan whole, and [par_eval_run] on
   the workers, which folds the same ADDs over a user functor leading
   each key (the bind pass stops at it), or bound newest first (the bind
   pass folds none, and each key's segment is reversed in place).  The
   orchestrator's per-node share is the bind loop, the segment sort, the
   commit and the dispatch.  4,096 ADDs over 16 keys on a 1-domain pool
   (the caller runs every task, so [Gc.minor_words] sees all of it):
   with a task record per node and the [find_le] option walk on the
   workers, [Planner.run] allocated 32.3 minor words per node; with flat
   per-plan slots and the chain-index walk, 10.2 (a [prepared] record and
   an option per node); with the plan's nodes as parallel arrays and the
   prepare loop's key cursor, 0.3 (4.4 newest first, while a segment out
   of version order was sorted in a copy).  The bound sits between the
   last two.  The plan-long arrays are too big for the minor heap and go
   straight to the major heap, which [Gc.minor_words] never sees, so the
   bind-pass path also bounds the major words ([Gc.counters], after a
   minor collection so that nothing is promoted in between): with every
   folded node written to seven plan-long arrays it read 7 per node; a
   plan keeps no per-node array for a node the bind pass folds. *)
let test_builtin_plan_allocation () =
  let ops = 4096 in
  let per_node ~lead ~newest_first =
    let metrics = Sim.Metrics.create () in
    let sim, planner, rpool, items =
      adds_plan ~metrics ~lead ~newest_first ~domains:1 ~keys:16 ~ops
        ~rejected:false ()
    in
    Gc.minor ();
    let _, _, major0 = Gc.counters () in
    let w0 = Gc.minor_words () in
    ignore (Functor_cc.Planner.run planner ~items);
    let words = Gc.minor_words () -. w0 in
    let _, _, major1 = Gc.counters () in
    let completed = Pool.completed rpool in
    Sim.Engine.run sim;
    Pool.shutdown rpool;
    Alcotest.(check int) "every node evaluated"
      (List.length items)
      (Sim.Metrics.get metrics "plan.real_evaluated");
    let per x = x /. float_of_int ops in
    (completed, per words, per (major1 -. major0))
  in
  List.iter
    (fun (lead, newest_first, path, ran_batch) ->
      let completed, minor, major = per_node ~lead ~newest_first in
      Alcotest.(check bool) (path ^ ": a batch ran") ran_batch (completed > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: minor words per node %.1f <= 2" path minor)
        true (minor <= 2.);
      if not ran_batch then
        Alcotest.(check bool)
          (Printf.sprintf "%s: major words per node %.2f < 1" path major)
          true (major < 1.))
    [ (false, false, "bind pass", false);
      (true, false, "worker fold", true);
      (false, true, "newest first", true) ]

(* A waiter on a pending ADD (an on-demand read that reached it before
   the close) keeps its record out of the bind pass's fold, and so its
   key's later nodes too: the dispatch evaluates them, as under the
   simulated runtime, and fires the waiter once, with the same value,
   after the folded key's [notify_final]s and its own. *)
let folded_waiter_run ~real =
  let sim = Sim.Engine.create () in
  let pool = Sim.Worker_pool.create sim ~workers:1 in
  let notified = ref [] and fired = ref [] in
  let callbacks =
    { Engine.is_local = (fun _ -> true);
      remote_get = (fun ~key:_ ~version:_ k -> k None);
      send_push = (fun ~dst_key:_ ~version:_ ~src_key:_ _ -> ());
      send_dep_write = (fun ~key:_ ~version:_ _ -> ());
      notify_final =
        (fun ~key ~version ~pending:_ ~final ->
          notified := (Mvstore.Key.name key, version, final) :: !notified);
      exec = (fun ~cost k -> Sim.Worker_pool.submit pool ~cost k);
      now = (fun () -> Sim.Engine.now sim) }
  in
  let metrics = Sim.Metrics.create () in
  let e =
    Engine.create ~registry:(Registry.with_builtins ()) ~callbacks
      ~compute_cost_us:1 ~metrics ()
  in
  let a = ik "fw:a" and b = ik "fw:b" in
  List.iter (fun key -> Engine.load_initial e ~key (Value.int 0)) [ a; b ];
  let install key version arg =
    match
      Engine.install e ~key ~version ~lo:0 ~hi:max_int
        (Funct.mk_pending ~ftype:Ftype.Add
           ~farg:(Funct.farg_args [ Value.int arg ])
           ~txn_id:version ~coordinator:0)
    with
    | Ok () -> { Functor_cc.Processor.key; version }
    | Error _ -> Alcotest.fail "install failed"
  in
  let items = [ install a 1 3; install b 1 5; install a 2 4; install b 2 6 ] in
  (match
     (Option.get (Mvstore.Table.find_le (Engine.table e) ~key:a ~version:1))
   with
  | 1, { Funct.state = Funct.Pending p } ->
      Funct.add_waiter p (fun final ->
          fired := (List.length !notified, final) :: !fired)
  | _ -> Alcotest.fail "a@1 not pending");
  let rpool = if real then Some (Pool.create ~domains:1) else None in
  let planner =
    Functor_cc.Planner.create ~engine:e ~pool ?real:rpool ~dispatch_cost_us:1
      ~metrics ()
  in
  ignore (Functor_cc.Planner.run planner ~items);
  Sim.Engine.run sim;
  Option.iter Pool.shutdown rpool;
  (Sim.Metrics.get metrics "plan.real_evaluated", !fired, List.rev !notified)

let test_folded_waiter_to_dispatch () =
  let evaluated, fired, notified = folded_waiter_run ~real:true in
  let _, sim_fired, _ = folded_waiter_run ~real:false in
  Alcotest.(check int) "only fw:b folded" 2 evaluated;
  Alcotest.(check bool) "fired once, with 3, as under sim" true
    (fired = [ (3, Funct.Committed (Value.int 3)) ]
    && List.map snd sim_fired = List.map snd fired);
  Alcotest.(check bool) "fw:b in the bind pass, then fw:a in the dispatch"
    true
    (notified
    = [ ("fw:b", 1, Funct.Committed (Value.int 5));
        ("fw:b", 2, Funct.Committed (Value.int 11));
        ("fw:a", 1, Funct.Committed (Value.int 3));
        ("fw:a", 2, Funct.Committed (Value.int 7)) ])

let suite =
  [ Alcotest.test_case "run_batch barrier" `Quick test_batch_barrier;
    Alcotest.test_case "work stealing under skew" `Quick test_work_stealing;
    Alcotest.test_case "shutdown is final" `Quick test_shutdown;
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
      test_commit_mixed_plan;
    Alcotest.test_case "fold waits for a pending version below" `Quick
      test_fold_waits_for_pending_below;
    Alcotest.test_case "pushing built-in is not claimed" `Quick
      test_builtin_with_recipients_to_dispatch;
    QCheck_alcotest.to_alcotest prop_fold_matches_sim;
    Alcotest.test_case "evaluated plan dispatches silently" `Quick
      test_silent_dispatch;
    Alcotest.test_case "folded plan runs no batch" `Quick
      test_folded_plan_runs_no_batch;
    Alcotest.test_case "built-in plan allocation per node" `Quick
      test_builtin_plan_allocation;
    Alcotest.test_case "waiter keeps its record unfolded" `Quick
      test_folded_waiter_to_dispatch;
    Alcotest.test_case "raising task counted" `Quick test_raising_task ]
