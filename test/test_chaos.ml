(* Chaos subsystem: seeded fault schedules replay deterministically, and
   the protocol invariants (completion, state oracle, monotone
   watermarks, at-most-once evaluation, post-recovery equality with a
   crash-free reference) hold under loss, partitions, crashes, and clock
   skew.  A failing (engine, seed) pair reproduces exactly with
   `alohadb_cli chaos --engine E --seed N`. *)

let n_servers = 3

let find_target name =
  match Chaos.Driver.target_of_name name with
  | Some t -> t
  | None -> Alcotest.failf "no chaos target %s" name

let check_report (r : Chaos.Driver.report) =
  if not (Chaos.Driver.passed r) then
    Alcotest.failf "%s seed %d: %s" r.Chaos.Driver.engine r.Chaos.Driver.seed
      (String.concat "; " r.Chaos.Driver.violations)

(* The fixture seed is the first whose generated schedule includes a
   backend crash, so the replay covers WAL recovery re-entry. *)
let test_seed_replay () =
  let rec crashing s =
    if Chaos.Schedule.has_crash (Chaos.Schedule.generate ~seed:s ~n_servers)
    then s
    else crashing (s + 1)
  in
  let seed = crashing 1 in
  let schedule = Chaos.Schedule.generate ~seed ~n_servers in
  let t = find_target "aloha" in
  (* run_schedule itself runs the schedule twice and fails on a trace
     mismatch; a second run_schedule must land on the same digest. *)
  let r = Chaos.Driver.run_schedule t ~schedule in
  check_report r;
  Alcotest.(check string) "another run reproduces the trace hash"
    r.Chaos.Driver.trace_hash
    (Chaos.Driver.run_schedule t ~schedule).Chaos.Driver.trace_hash;
  Alcotest.(check bool) "trace is non-trivial" true
    (r.Chaos.Driver.trace_events > 100)

let test_engine_seeds name seeds () =
  let t = find_target name in
  List.iter (fun seed -> check_report (Chaos.Driver.run_seed t ~seed ~n_servers)) seeds

(* Epoch revocation under partition: one server (and its Revoke_ack path
   to the epoch manager) cut off mid-run; the manager's revoke
   re-broadcast and the participant's duplicate/orphan ack handling must
   keep the epoch pipeline — and every transaction — live. *)
let test_partition_revocation () =
  let schedule =
    { Chaos.Schedule.seed = 99;
      n_servers;
      events =
        [ Chaos.Schedule.Partition
            { group = [ 0 ]; from_us = 4_000; until_us = 12_000 } ] }
  in
  check_report (Chaos.Driver.run_schedule (find_target "aloha") ~schedule)

(* Backend crash mid-epoch with background loss: installs retried until
   the restarted backend recovers them from the WAL, recomputes, and
   re-drives Batch_done. *)
let test_crash_recovery () =
  let schedule =
    { Chaos.Schedule.seed = 123;
      n_servers;
      events =
        [ Chaos.Schedule.Crash { node = 1; at_us = 6_000; restart_at_us = 14_000 };
          Chaos.Schedule.Edict
            (Net.Faults.edict Net.Faults.Drop ~p:0.2 ~from_us:2_000
               ~until_us:30_000) ] }
  in
  check_report (Chaos.Driver.run_schedule (find_target "aloha") ~schedule)

let suite =
  [ Alcotest.test_case "seed replay determinism" `Slow test_seed_replay;
    Alcotest.test_case "partition revocation" `Slow test_partition_revocation;
    Alcotest.test_case "crash recovery" `Slow test_crash_recovery;
    Alcotest.test_case "aloha schedules" `Slow
      (test_engine_seeds "aloha" [ 1; 2; 3 ]);
    Alcotest.test_case "calvin schedules" `Slow
      (test_engine_seeds "calvin" [ 1; 2 ]);
    Alcotest.test_case "twopl schedules" `Slow
      (test_engine_seeds "twopl" [ 1; 2 ]) ]
