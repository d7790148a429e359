(* Cross-engine equivalence: the same seeded YCSB-style increment history
   fed through the shared kernel client loop to every registered ENGINE
   adapter (ALOHA-DB, Calvin, 2PL/2PC) must leave identical per-key
   totals — increments commute, so any serializable engine reaches the
   same state.  Also a model-based qcheck test for Calvin's lock manager. *)

module Value = Functor_cc.Value

let n = 2
let keys = List.init 12 (fun i -> Printf.sprintf "c:%d:%d" (i mod n) i)

(* A deterministic batch of increment transactions: (key indices, delta). *)
let batch =
  let rng = Sim.Rng.create 123 in
  List.init 60 (fun _ ->
      let k1 = Sim.Rng.int rng 12 in
      let k2 = Sim.Rng.int rng 12 in
      let delta = 1 + Sim.Rng.int rng 9 in
      ((k1, k2), delta))

let expected_totals () =
  let totals = Array.make 12 0 in
  List.iter
    (fun ((k1, k2), delta) ->
      totals.(k1) <- totals.(k1) + delta;
      if k2 <> k1 then totals.(k2) <- totals.(k2) + delta)
    batch;
  totals

let txn_keys (k1, k2) =
  List.sort_uniq compare [ List.nth keys k1; List.nth keys k2 ]

(* One scripted submission per batch entry, alternating frontends.  The
   warmup window ends before the first arrival, so the committed counter
   covers the whole history. *)
let run_engine ?runtime ?domains (Kernel.Intf.Pack (module E)) =
  let c = E.create (Kernel.Params.make ?runtime ?domains ~n_servers:n ()) in
  List.iter (fun k -> E.load c k (Value.int 0)) keys;
  E.start c;
  let remaining = ref batch in
  let gen ~fe:_ =
    match !remaining with
    | [] -> Alcotest.fail (E.name ^ ": generator exhausted")
    | (ks, delta) :: tl ->
        remaining := tl;
        Kernel.Txn.make
          (List.map (fun k -> (k, Kernel.Txn.Add delta)) (txn_keys ks))
  in
  let arrivals = List.mapi (fun i _ -> (1_000 + (i * 400), i mod n)) batch in
  let r =
    Kernel.Run.run
      (module E)
      ~cluster:c ~gen
      ~arrival:(Kernel.Arrivals.Scripted { arrivals })
      ~warmup_us:500 ~measure_us:3_000_000 ()
  in
  Alcotest.(check int)
    (E.name ^ " committed all")
    (List.length batch) r.Kernel.Result.committed;
  Alcotest.(check int) (E.name ^ " aborted none") 0 (Kernel.Result.abort_count r);
  let totals =
    List.map
      (fun k ->
        match E.read_committed c k with Some v -> Value.to_int v | None -> 0)
      keys
  in
  (* Joins the real runtime's worker domains when there are any; a no-op
     for purely simulated runs. *)
  E.stop c;
  (totals, r, E.metrics c)

let engines =
  [ Kernel.Intf.Pack (module Alohadb.Engine);
    Kernel.Intf.Pack (module Calvin.Engine);
    Kernel.Intf.Pack (module Twopl.Engine) ]

let test_three_engines_agree () =
  let expected = Array.to_list (expected_totals ()) in
  List.iter
    (fun (Kernel.Intf.Pack (module E) as engine) ->
      Alcotest.(check (list int))
        (E.name ^ " = oracle") expected
        (let totals, _, _ = run_engine engine in
         totals))
    engines

(* Sim-vs-real equivalence: the same scripted history through ALOHA with
   functor evaluation on simulated workers (--runtime sim) and on real
   OCaml 5 domains (--runtime real) must commit the same transactions and
   leave identical final state.  Deliberately NOT a throughput check: the
   real runtime evaluates plans eagerly at epoch close, which shifts
   simulated completion timing (see DESIGN.md §12) — state equivalence is
   the invariant, wall clock is the benchmark's job.  run_engine already
   asserts the committed/aborted counts match the script, so a totals
   match here means identical committed sets. *)
let test_sim_vs_real_agree () =
  let expected = Array.to_list (expected_totals ()) in
  let aloha = Kernel.Intf.Pack (module Alohadb.Engine) in
  let sim_totals, _, _ = run_engine aloha in
  let real_totals, _, _ = run_engine ~runtime:"real" ~domains:4 aloha in
  Alcotest.(check (list int)) "sim = oracle" expected sim_totals;
  Alcotest.(check (list int)) "real(4 domains) = sim" sim_totals real_totals

(* --runtime real takes effect without any other option: the planner is
   the one compute strategy, so its key runs land on the domain pool. *)
let test_real_runtime_evaluates_on_domains () =
  let aloha = Kernel.Intf.Pack (module Alohadb.Engine) in
  let _, _, metrics = run_engine ~runtime:"real" ~domains:2 aloha in
  Alcotest.(check bool) "plan.real_evaluated > 0" true
    (Sim.Metrics.get metrics "plan.real_evaluated" > 0)

let test_retired_strategies_rejected () =
  ignore
    (Alohadb.Engine.create
       (Kernel.Params.make ~compute:"planned" ~n_servers:2 ()));
  List.iter
    (fun mode ->
      match
        Alohadb.Engine.create
          (Kernel.Params.make ~compute:mode ~n_servers:2 ())
      with
      | _ -> Alcotest.failf "compute %S accepted" mode
      | exception Invalid_argument msg ->
          Alcotest.(check string) "names the one valid mode"
            (Printf.sprintf
               "Alohadb.Engine: unknown compute mode %S (expected planned)"
               mode)
            msg)
    [ "pool"; "ondemand" ];
  (* rejected before Cluster.create, so no domain is spawned *)
  match
    Alohadb.Engine.create
      (Kernel.Params.make ~runtime:"real" ~domains:1000 ~n_servers:2 ())
  with
  | _ -> Alcotest.fail "--domains 1000 accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "names the domain limit"
        "Alohadb.Engine: --domains must be <= 128" msg

(* ---- model-based lock manager check -------------------------------------- *)

(* Random request/release sequences; invariants checked after each step:
   no write lock shared, readers never coexist with a writer, and every
   transaction eventually becomes ready once conflicts drain. *)
let prop_lock_manager_safety =
  let module LM = Calvin.Lock_manager in
  let step_gen =
    QCheck2.Gen.(
      let* uid = int_range 1 8 in
      let* kind = int_range 0 2 in
      let* key = map (Printf.sprintf "k%d") (int_range 0 3) in
      return (uid, kind, key))
  in
  QCheck2.Test.make ~name:"lock manager safety + liveness" ~count:300
    QCheck2.Gen.(list_size (int_range 1 60) step_gen)
    (fun steps ->
      let ready = Hashtbl.create 8 in
      let lm = LM.create ~on_ready:(fun uid -> Hashtbl.replace ready uid ()) in
      let live = Hashtbl.create 8 in
      let ok = ref true in
      let check_key key =
        let holders = LM.holders lm key in
        (* at most one writer, and a writer excludes everyone else *)
        let writers =
          List.filter
            (fun uid ->
              match Hashtbl.find_opt live uid with
              | Some keys -> List.mem_assoc key keys
                             && List.assoc key keys = LM.Write
              | None -> false)
            holders
        in
        if List.length writers > 1 then ok := false;
        if writers <> [] && List.length holders > 1 then ok := false
      in
      List.iter
        (fun (uid, kind, key) ->
          match kind with
          | 0 when not (Hashtbl.mem live uid) ->
              let keys = [ (key, LM.Read) ] in
              Hashtbl.replace live uid keys;
              LM.request lm ~uid ~keys;
              check_key key
          | 1 when not (Hashtbl.mem live uid) ->
              let keys = [ (key, LM.Write) ] in
              Hashtbl.replace live uid keys;
              LM.request lm ~uid ~keys;
              check_key key
          | 2 when Hashtbl.mem live uid ->
              Hashtbl.remove live uid;
              Hashtbl.remove ready uid;
              LM.release lm ~uid;
              check_key key
          | _ -> ())
        steps;
      (* liveness: release everything still live; everyone must have become
         ready at some point before or during drain *)
      Hashtbl.iter (fun uid _ -> LM.release lm ~uid) live;
      !ok)

let suite =
  [ Alcotest.test_case "three engines agree" `Slow test_three_engines_agree;
    Alcotest.test_case "sim vs real runtime agree" `Slow
      test_sim_vs_real_agree;
    Alcotest.test_case "real runtime evaluates on domains" `Quick
      test_real_runtime_evaluates_on_domains;
    Alcotest.test_case "retired compute modes rejected" `Quick
      test_retired_strategies_rejected;
    QCheck_alcotest.to_alcotest prop_lock_manager_safety ]
