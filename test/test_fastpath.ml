(* Coordination-free commit fast path: classifier coverage (unit +
   qcheck), a commutativity oracle under random interleavings of fast-
   and slow-lane transactions, fastpath-on vs off state equivalence on
   scripted histories, and the chaos battery with the lane enabled.

   Every equivalence test scripts its arrivals (Kernel.Arrivals.Scripted):
   a closed loop re-submits on reply, so collapsing commit latency would
   change the submitted history and the runs would not be comparable. *)

module Value = Functor_cc.Value
module ATxn = Alohadb.Txn

(* ---- classifier ---------------------------------------------------------- *)

let call ?(read_set = []) handler =
  ATxn.Call { handler; read_set; args = [] }

let test_classifier () =
  let ok writes = ATxn.all_commutative ~writes ~precondition_keys:[] in
  Alcotest.(check bool)
    "all four arithmetic builtins accepted" true
    (ok [ ("a", ATxn.Add 1); ("b", ATxn.Subtr 2); ("c", ATxn.Max 3);
          ("d", ATxn.Min 4) ]);
  Alcotest.(check bool) "empty write set rejected" false (ok []);
  Alcotest.(check bool)
    "non-empty read set rejected" false
    (ATxn.all_commutative
       ~writes:[ ("a", ATxn.Add 1) ]
       ~precondition_keys:[ "b" ]);
  Alcotest.(check bool)
    "blind put rejected" false
    (ok [ ("a", ATxn.Put (Value.int 7)) ]);
  Alcotest.(check bool) "delete rejected" false (ok [ ("a", ATxn.Delete) ]);
  Alcotest.(check bool)
    "user call rejected" false
    (ok [ ("a", call ~read_set:[ "b" ] "h") ]);
  Alcotest.(check bool)
    "mixed write set rejected" false
    (ok [ ("a", ATxn.Add 1); ("b", ATxn.Put (Value.int 7)) ])

(* The classifier is exactly "non-empty, preconditions empty, every op an
   arithmetic built-in" — checked against an independent fold over random
   write sets. *)
let prop_classifier =
  let op_gen =
    QCheck2.Gen.(
      let* k = int_range 0 6 in
      let* d = int_range (-9) 9 in
      return
        (match k with
        | 0 -> ATxn.Add d
        | 1 -> ATxn.Subtr d
        | 2 -> ATxn.Max d
        | 3 -> ATxn.Min d
        | 4 -> ATxn.Put (Value.int d)
        | 5 -> ATxn.Delete
        | _ -> call "h"))
  in
  let writes_gen =
    QCheck2.Gen.(
      list_size (int_range 0 8)
        (let* key = map (Printf.sprintf "k%d") (int_range 0 5) in
         let* op = op_gen in
         return (key, op)))
  in
  QCheck2.Test.make ~name:"classifier accepts exactly the commutative sets"
    ~count:500
    QCheck2.Gen.(pair writes_gen bool)
    (fun (writes, with_precond) ->
      let precondition_keys = if with_precond then [ "p" ] else [] in
      let expect =
        (not with_precond)
        && writes <> []
        && List.for_all
             (fun (_, op) ->
               match op with
               | ATxn.Add _ | ATxn.Subtr _ | ATxn.Max _ | ATxn.Min _ -> true
               | _ -> false)
             writes
      in
      ATxn.all_commutative ~writes ~precondition_keys = expect)

(* ---- scripted ALOHA runs ------------------------------------------------- *)

let n = 2

(* Run one scripted transaction list through ALOHA and return (final
   values of [keys], result).  [setv] commits its first argument — a
   slow-lane stand-in for arbitrary user logic. *)
let run_aloha ~fastpath ~keys ~txns =
  let module E = Alohadb.Engine in
  let c = E.create (Kernel.Params.make ~fastpath ~n_servers:n ()) in
  E.register c "setv" (fun ctx ->
      Functor_cc.Registry.Commit (Functor_cc.Registry.arg ctx 0));
  List.iter (fun k -> E.load c k (Value.int 0)) keys;
  E.start c;
  let remaining = ref txns in
  let gen ~fe:_ =
    match !remaining with
    | [] -> Alcotest.fail "fastpath: generator exhausted"
    | t :: tl ->
        remaining := tl;
        t
  in
  let arrivals = List.mapi (fun i _ -> (1_000 + (i * 200), i mod n)) txns in
  let r =
    Kernel.Run.run
      (module E)
      ~cluster:c ~gen
      ~arrival:(Kernel.Arrivals.Scripted { arrivals })
      ~warmup_us:500 ~measure_us:3_000_000 ()
  in
  let values =
    List.map
      (fun k ->
        match E.read_committed c k with Some v -> Value.to_int v | None -> 0)
      keys
  in
  E.stop c;
  (values, r)

let fast_commits (r : Kernel.Result.t) =
  match List.assoc_opt "fastpath commits" r.Kernel.Result.counters with
  | Some v -> v
  | None -> 0

(* ---- commutativity oracle under random interleavings --------------------- *)

(* Key families, one commutative fold each, so every submission order
   reaches the same final state: additive counters (Add/Subtr), MAX
   watermarks, and per-transaction-unique slow keys (a blind Put or a
   [setv] call, at most one writer per key).  Slow transactions may also
   carry an Add — the mixed write set forces them onto the slow lane
   while still touching the shared counters. *)

let add_keys = List.init 4 (fun i -> Printf.sprintf "fa:%d:%d" (i mod n) i)
let max_keys = List.init 2 (fun i -> Printf.sprintf "fm:%d:%d" (i mod n) i)

type step =
  | Fast_add of int * int  (* counter idx, signed delta *)
  | Fast_max of int * int  (* watermark idx, value *)
  | Slow_put of int  (* value; key is the step's own slot *)
  | Slow_call of int
  | Slow_mixed of int * int  (* put value + counter idx (delta 1) *)

let step_gen =
  QCheck2.Gen.(
    let* k = int_range 0 5 in
    let* a = int_range 0 3 in
    let* v = int_range 1 50 in
    return
      (match k with
      | 0 | 1 -> Fast_add (a, if v mod 2 = 0 then v else -v)
      | 2 -> Fast_max (a mod 2, v)
      | 3 -> Slow_put v
      | 4 -> Slow_call v
      | _ -> Slow_mixed (v, a)))

let slow_key i = Printf.sprintf "fs:%d:%d" (i mod n) i

let txn_of_step i = function
  | Fast_add (a, d) ->
      Kernel.Txn.make [ (List.nth add_keys a, Kernel.Txn.Add d) ]
  | Fast_max (m, v) ->
      Kernel.Txn.make [ (List.nth max_keys m, Kernel.Txn.Max v) ]
  | Slow_put v -> Kernel.Txn.make [ (slow_key i, Kernel.Txn.Put (Value.int v)) ]
  | Slow_call v ->
      Kernel.Txn.make
        [ (slow_key i,
           Kernel.Txn.Call
             { handler = "setv"; read_set = [ slow_key i ];
               args = [ Value.int v ] }) ]
  | Slow_mixed (v, a) ->
      Kernel.Txn.make
        [ (slow_key i, Kernel.Txn.Put (Value.int v));
          (List.nth add_keys a, Kernel.Txn.Add 1) ]

let is_fast = function Fast_add _ | Fast_max _ -> true | _ -> false

let oracle steps =
  let adds = Array.make (List.length add_keys) 0 in
  let maxs = Array.make (List.length max_keys) 0 in
  let slows =
    List.mapi
      (fun i s ->
        match s with
        | Slow_put v | Slow_call v -> [ (slow_key i, v) ]
        | Slow_mixed (v, _) -> [ (slow_key i, v) ]
        | Fast_add _ | Fast_max _ -> [])
      steps
    |> List.concat
  in
  List.iteri
    (fun _ s ->
      match s with
      | Fast_add (a, d) -> adds.(a) <- adds.(a) + d
      | Fast_max (m, v) -> maxs.(m) <- max maxs.(m) v
      | Slow_mixed (_, a) -> adds.(a) <- adds.(a) + 1
      | Slow_put _ | Slow_call _ -> ())
    steps;
  (Array.to_list adds, Array.to_list maxs, slows)

let prop_interleaving_oracle =
  QCheck2.Test.make
    ~name:"fast lane converges to the commutative oracle (random history)"
    ~count:15
    QCheck2.Gen.(list_size (int_range 1 24) step_gen)
    (fun steps ->
      let exp_adds, exp_maxs, exp_slows = oracle steps in
      let keys = add_keys @ max_keys @ List.map fst exp_slows in
      let txns = List.mapi txn_of_step steps in
      let values_on, r_on = run_aloha ~fastpath:true ~keys ~txns in
      let values_off, r_off = run_aloha ~fastpath:false ~keys ~txns in
      let expected = exp_adds @ exp_maxs @ List.map snd exp_slows in
      values_on = expected && values_off = expected
      && r_on.Kernel.Result.committed = List.length steps
      && r_off.Kernel.Result.committed = List.length steps
      && fast_commits r_on
         = List.length (List.filter is_fast steps)
      && fast_commits r_off = 0)

(* ---- deterministic on-vs-off differentials -------------------------------- *)

(* Counter-only history (the cross-engine batch shape): every transaction
   takes the fast lane, state matches the closed-form totals, and the
   measured p50 collapses below the slow path's epoch-bound latency. *)
let test_equiv_counters () =
  let rng = Sim.Rng.create 321 in
  let batch =
    List.init 60 (fun _ ->
        (Sim.Rng.int rng 4, Sim.Rng.int rng 2, 1 + Sim.Rng.int rng 9))
  in
  let txns =
    List.map
      (fun (a, m, d) ->
        Kernel.Txn.make
          [ (List.nth add_keys a, Kernel.Txn.Add d);
            (List.nth max_keys m, Kernel.Txn.Max d) ])
      batch
  in
  let keys = add_keys @ max_keys in
  let values_off, r_off = run_aloha ~fastpath:false ~keys ~txns in
  let values_on, r_on = run_aloha ~fastpath:true ~keys ~txns in
  Alcotest.(check (list int)) "on = off" values_off values_on;
  Alcotest.(check int)
    "off committed all" (List.length batch) r_off.Kernel.Result.committed;
  Alcotest.(check int)
    "on committed all" (List.length batch) r_on.Kernel.Result.committed;
  Alcotest.(check int)
    "every txn took the fast lane" (List.length batch) (fast_commits r_on);
  Alcotest.(check bool)
    (Printf.sprintf "p50 collapsed (%d us on vs %d us off)"
       r_on.Kernel.Result.lat_p50_us r_off.Kernel.Result.lat_p50_us)
    true
    (r_on.Kernel.Result.lat_p50_us < r_off.Kernel.Result.lat_p50_us);
  Alcotest.(check bool) "on p50 sub-ms" true
    (r_on.Kernel.Result.lat_p50_us < 1_000)

(* Slow-only history under fastpath=on: the classifier must keep every
   transaction on the ordered lane (puts, calls, preconditioned adds,
   mixed write sets), and the final state must match fastpath=off. *)
let test_negative_stay_slow () =
  let keys = List.init 8 (fun i -> Printf.sprintf "ns:%d:%d" (i mod n) i) in
  let counter = List.hd add_keys in
  let txns =
    [ Kernel.Txn.make [ (List.nth keys 0, Kernel.Txn.Put (Value.int 11)) ];
      Kernel.Txn.make
        [ (List.nth keys 1,
           Kernel.Txn.Call
             { handler = "setv"; read_set = [ List.nth keys 1 ];
               args = [ Value.int 22 ] }) ];
      (* commutative ops but a non-empty read set: rejected *)
      Kernel.Txn.make
        ~precondition_keys:[ List.nth keys 2 ]
        [ (counter, Kernel.Txn.Add 5) ];
      (* mixed write set: rejected as a whole *)
      Kernel.Txn.make
        [ (List.nth keys 3, Kernel.Txn.Put (Value.int 33));
          (counter, Kernel.Txn.Add 7) ] ]
  in
  let all_keys = (counter :: keys) in
  let values_off, r_off = run_aloha ~fastpath:false ~keys:all_keys ~txns in
  let values_on, r_on = run_aloha ~fastpath:true ~keys:all_keys ~txns in
  Alcotest.(check (list int)) "on = off" values_off values_on;
  Alcotest.(check int) "counter total" 12 (List.hd values_on);
  Alcotest.(check int)
    "all committed" (List.length txns) r_on.Kernel.Result.committed;
  Alcotest.(check int) "no txn took the fast lane" 0 (fast_commits r_on);
  Alcotest.(check int) "off lane untouched" 0 (fast_commits r_off)

(* ---- chaos battery with the fast lane ------------------------------------ *)

(* The chaos workload is all blind increments, so with the lane enabled
   every transaction commits coordination-free — under crashes, loss and
   partitions, replicated and not.  Same fixed seeds as test_chaos. *)
let test_chaos_fastpath () =
  let aloha =
    match Chaos.Driver.target_of_name "aloha" with
    | Some t -> t
    | None -> Alcotest.fail "aloha chaos target missing"
  in
  List.iter
    (fun (seed, replicas) ->
      let r =
        Chaos.Driver.run_seed ~fastpath:true ~replicas aloha ~seed
          ~n_servers:3
      in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d k=%d invariants" seed replicas)
        [] r.Chaos.Driver.violations;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d k=%d used the fast lane" seed replicas)
        true r.Chaos.Driver.fastpath)
    [ (1, 1); (2, 1); (3, 2) ]

let suite =
  [ Alcotest.test_case "classifier accepts/rejects" `Quick test_classifier;
    QCheck_alcotest.to_alcotest prop_classifier;
    QCheck_alcotest.to_alcotest prop_interleaving_oracle;
    Alcotest.test_case "counter history: on = off, latency collapses" `Slow
      test_equiv_counters;
    Alcotest.test_case "ineligible txns stay on the slow lane" `Quick
      test_negative_stay_slow;
    Alcotest.test_case "chaos battery with fast lane (k=1,2)" `Slow
      test_chaos_fastpath ]
