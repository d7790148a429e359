(* Calvin baseline: lock-manager unit tests plus whole-cluster runs. *)

module Value = Functor_cc.Value
module LM = Calvin.Lock_manager

(* ---- lock manager ---------------------------------------------------- *)

let test_lm_uncontended () =
  let ready = ref [] in
  let lm = LM.create ~on_ready:(fun uid -> ready := uid :: !ready) in
  LM.request lm ~uid:1 ~keys:[ ("a", LM.Write); ("b", LM.Read) ];
  Alcotest.(check (list int)) "granted immediately" [ 1 ] !ready

let test_lm_write_write_conflict () =
  let ready = ref [] in
  let lm = LM.create ~on_ready:(fun uid -> ready := uid :: !ready) in
  LM.request lm ~uid:1 ~keys:[ ("a", LM.Write) ];
  LM.request lm ~uid:2 ~keys:[ ("a", LM.Write) ];
  Alcotest.(check (list int)) "only first granted" [ 1 ] !ready;
  LM.release lm ~uid:1;
  Alcotest.(check (list int)) "second granted on release" [ 2; 1 ] !ready

let test_lm_shared_reads () =
  let ready = ref [] in
  let lm = LM.create ~on_ready:(fun uid -> ready := uid :: !ready) in
  LM.request lm ~uid:1 ~keys:[ ("a", LM.Read) ];
  LM.request lm ~uid:2 ~keys:[ ("a", LM.Read) ];
  LM.request lm ~uid:3 ~keys:[ ("a", LM.Write) ];
  Alcotest.(check (list int)) "reads share" [ 2; 1 ] !ready;
  LM.release lm ~uid:1;
  Alcotest.(check (list int)) "write still blocked" [ 2; 1 ] !ready;
  LM.release lm ~uid:2;
  Alcotest.(check (list int)) "write granted last" [ 3; 2; 1 ] !ready

let test_lm_fifo_no_starvation () =
  let ready = ref [] in
  let lm = LM.create ~on_ready:(fun uid -> ready := uid :: !ready) in
  LM.request lm ~uid:1 ~keys:[ ("a", LM.Read) ];
  LM.request lm ~uid:2 ~keys:[ ("a", LM.Write) ];
  (* A later read must NOT jump the queued write (deterministic order). *)
  LM.request lm ~uid:3 ~keys:[ ("a", LM.Read) ];
  Alcotest.(check (list int)) "read 3 waits behind write" [ 1 ] !ready;
  LM.release lm ~uid:1;
  Alcotest.(check (list int)) "write next" [ 2; 1 ] !ready;
  LM.release lm ~uid:2;
  Alcotest.(check (list int)) "read 3 last" [ 3; 2; 1 ] !ready

let test_lm_duplicate_keys_coalesce () =
  let ready = ref [] in
  let lm = LM.create ~on_ready:(fun uid -> ready := uid :: !ready) in
  LM.request lm ~uid:1 ~keys:[ ("a", LM.Read); ("a", LM.Write) ];
  Alcotest.(check (list int)) "granted once" [ 1 ] !ready;
  Alcotest.(check (list int)) "single holder" [ 1 ] (LM.holders lm "a");
  LM.release lm ~uid:1;
  Alcotest.(check int) "queue empty" 0 (LM.waiting lm "a")

(* ---- cluster ---------------------------------------------------------- *)

module E = Calvin.Engine

let mk_cluster ?(n = 2) () =
  let c = E.create (Kernel.Params.make ~n_servers:n ()) in
  E.start c;
  c

let incr_txn keys =
  Kernel.Txn.make (List.map (fun k -> (k, Kernel.Txn.Add 1)) keys)

let submit c ~fe keys = E.submit c ~fe (incr_txn keys) ~k:ignore

let run_for c us =
  let sim = E.sim c in
  Sim.Engine.run ~until:(Sim.Engine.now sim + us) sim

let read c k = Value.to_int (Option.get (E.read_committed c k))

let test_calvin_single_partition () =
  let c = mk_cluster () in
  E.load c "k0" (Value.int 10);
  let fe = E.partition_of c "k0" in
  submit c ~fe [ "k0" ];
  run_for c 100_000;
  Alcotest.(check int) "incremented" 11 (read c "k0");
  Alcotest.(check int) "committed" 1
    (Sim.Metrics.get (E.metrics c) "calvin.committed")

let test_calvin_distributed () =
  let c = mk_cluster () in
  (* Find two keys on different partitions. *)
  let k0 = "alpha" in
  let p0 = E.partition_of c k0 in
  let rec find_other i =
    let k = Printf.sprintf "key%d" i in
    if E.partition_of c k <> p0 then k else find_other (i + 1)
  in
  let k1 = find_other 0 in
  let p1 = E.partition_of c k1 in
  Alcotest.(check bool) "keys on distinct partitions" true (p0 <> p1);
  E.load c k0 (Value.int 0);
  E.load c k1 (Value.int 100);
  submit c ~fe:0 [ k0; k1 ];
  run_for c 200_000;
  Alcotest.(check int) "k0" 1 (read c k0);
  Alcotest.(check int) "k1" 101 (read c k1);
  Alcotest.(check int) "committed" 1
    (Sim.Metrics.get (E.metrics c) "calvin.committed")

(* Determinism: conflicting increments from different origins must apply
   exactly once each, in some serial order — the final count tells. *)
let test_calvin_conflicting_increments () =
  let c = mk_cluster () in
  E.load c "hot" (Value.int 0);
  for fe = 0 to 1 do
    for _ = 1 to 25 do
      submit c ~fe [ "hot" ]
    done
  done;
  run_for c 1_000_000;
  Alcotest.(check int) "all increments applied" 50 (read c "hot");
  Alcotest.(check int) "all committed" 50
    (Sim.Metrics.get (E.metrics c) "calvin.committed")

(* Replaying the same submissions yields an identical final state. *)
let test_calvin_deterministic_replay () =
  let run () =
    let c = mk_cluster () in
    List.iter (fun k -> E.load c k (Value.int 0)) [ "a"; "b"; "c"; "d" ];
    submit c ~fe:0 [ "a"; "b" ];
    submit c ~fe:1 [ "b"; "c" ];
    submit c ~fe:0 [ "c"; "d" ];
    run_for c 500_000;
    List.map (read c) [ "a"; "b"; "c"; "d" ]
  in
  Alcotest.(check (list int)) "identical states" (run ()) (run ())

let suite =
  [ Alcotest.test_case "lm uncontended" `Quick test_lm_uncontended;
    Alcotest.test_case "lm write-write conflict" `Quick
      test_lm_write_write_conflict;
    Alcotest.test_case "lm shared reads" `Quick test_lm_shared_reads;
    Alcotest.test_case "lm fifo no starvation" `Quick
      test_lm_fifo_no_starvation;
    Alcotest.test_case "lm duplicate keys coalesce" `Quick
      test_lm_duplicate_keys_coalesce;
    Alcotest.test_case "single-partition txn" `Quick
      test_calvin_single_partition;
    Alcotest.test_case "distributed txn" `Quick test_calvin_distributed;
    Alcotest.test_case "conflicting increments" `Quick
      test_calvin_conflicting_increments;
    Alcotest.test_case "deterministic replay" `Quick
      test_calvin_deterministic_replay ]
