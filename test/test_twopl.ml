(* The conventional 2PL/2PC baseline. *)

module Value = Functor_cc.Value
module E = Twopl.Engine

let mk ?(n = 2) () = E.create (Kernel.Params.make ~n_servers:n ())

let incr_txn keys =
  Kernel.Txn.make (List.map (fun k -> (k, Kernel.Txn.Add 1)) keys)

let key p i = Printf.sprintf "t:%d:%d" p i
let read c k = E.read_committed c k

let run_for c us =
  let sim = E.sim c in
  Sim.Engine.run ~until:(Sim.Engine.now sim + us) sim

let test_single_partition () =
  let c = mk () in
  E.load c (key 0 0) (Value.int 10);
  let done_ = ref false in
  E.submit c ~fe:0 (incr_txn [ key 0 0 ]) ~k:(fun _ -> done_ := true);
  run_for c 100_000;
  Alcotest.(check bool) "completed" true !done_;
  Alcotest.(check int) "incremented" 11
    (Value.to_int (Option.get (read c (key 0 0))));
  Alcotest.(check int) "committed metric" 1
    (Sim.Metrics.get (E.metrics c) "twopl.committed")

let test_distributed_txn () =
  let c = mk () in
  E.load c (key 0 0) (Value.int 0);
  E.load c (key 1 0) (Value.int 100);
  E.submit c ~fe:0 (incr_txn [ key 0 0; key 1 0 ]) ~k:ignore;
  run_for c 200_000;
  Alcotest.(check int) "k0" 1 (Value.to_int (Option.get (read c (key 0 0))));
  Alcotest.(check int) "k1" 101 (Value.to_int (Option.get (read c (key 1 0))))

(* Conflicting increments serialize through the locks: exact final count. *)
let test_conflicting_increments () =
  let c = mk () in
  E.load c (key 0 7) (Value.int 0);
  let sim = E.sim c in
  let completed = ref 0 in
  for i = 0 to 39 do
    Sim.Engine.schedule sim ~at:(500 + (i * 300)) (fun () ->
        E.submit c ~fe:(i mod 2) (incr_txn [ key 0 7 ])
          ~k:(fun _ -> incr completed))
  done;
  Sim.Engine.run ~until:2_000_000 sim;
  Alcotest.(check int) "all completed" 40 !completed;
  Alcotest.(check int) "exact count (atomicity under conflicts)" 40
    (Value.to_int (Option.get (read c (key 0 7))))

(* Opposite-order lock acquisition across partitions: deadlocks resolve by
   timeout + retry, and both transactions eventually apply. *)
let test_deadlock_resolution () =
  let c = mk () in
  E.load c (key 0 1) (Value.int 0);
  E.load c (key 1 1) (Value.int 0);
  let sim = E.sim c in
  let completed = ref 0 in
  (* Both transactions write both keys; their Lock_and_read requests race
     on two partitions in opposite arrival orders, which can deadlock. *)
  for i = 0 to 19 do
    Sim.Engine.schedule sim ~at:(500 + (i * 50)) (fun () ->
        E.submit c ~fe:(i mod 2)
          (incr_txn [ key 0 1; key 1 1 ])
          ~k:(fun _ -> incr completed))
  done;
  Sim.Engine.run ~until:5_000_000 sim;
  Alcotest.(check int) "all eventually complete" 20 !completed;
  Alcotest.(check int) "both keys exact" 20
    (Value.to_int (Option.get (read c (key 0 1))));
  Alcotest.(check int) "both keys exact (2)" 20
    (Value.to_int (Option.get (read c (key 1 1))))

let test_contention_hurts_throughput () =
  (* Sanity for the extension experiment: under a single hot key, 2PL
     commits far less than it would uncontended, and records lock
     timeouts/restarts. *)
  let c = mk ~n:4 () in
  for p = 0 to 3 do
    for i = 0 to 99 do
      E.load c (key p i) (Value.int 0)
    done
  done;
  let sim = E.sim c in
  let rng = Sim.Rng.create 5 in
  for i = 0 to 799 do
    Sim.Engine.schedule sim ~at:(500 + (i * 120)) (fun () ->
        (* all transactions touch hot key (0,0) plus a random cold key *)
        let cold = key (1 + Sim.Rng.int rng 3) (Sim.Rng.int rng 100) in
        E.submit c ~fe:(i mod 4) (incr_txn [ key 0 0; cold ]) ~k:ignore)
  done;
  Sim.Engine.run ~until:3_000_000 sim;
  let m = E.metrics c in
  Alcotest.(check bool) "some commits" true
    (Sim.Metrics.get m "twopl.committed" > 100);
  Alcotest.(check bool) "contention visible as timeouts" true
    (Sim.Metrics.get m "twopl.lock_timeouts" > 0)

let suite =
  [ Alcotest.test_case "single partition" `Quick test_single_partition;
    Alcotest.test_case "distributed txn" `Quick test_distributed_txn;
    Alcotest.test_case "conflicting increments" `Quick
      test_conflicting_increments;
    Alcotest.test_case "deadlock resolution" `Quick test_deadlock_resolution;
    Alcotest.test_case "contention behaviour" `Quick
      test_contention_hurts_throughput ]
