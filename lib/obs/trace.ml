type stage =
  | Submit
  | Epoch_assign
  | Functor_write
  | Batch_ack
  | Epoch_close
  | Compute_start
  | Compute_done
  | Read_served
  | Sequenced
  | Scheduled
  | Locks_acquired
  | Exec_start
  | Exec_done
  | Lock_timeout
  | Prepared
  | Committed
  | Aborted
  | Restarted
  | Fault_drop
  | Fault_delay
  | Plan_build
  | Plan_evaluate
  | Stratum_dispatch
  | Wal_ship
  | Promote
  | Fastpath_commit

let stage_name = function
  | Submit -> "submit"
  | Epoch_assign -> "epoch_assign"
  | Functor_write -> "functor_write"
  | Batch_ack -> "batch_ack"
  | Epoch_close -> "epoch_close"
  | Compute_start -> "compute_start"
  | Compute_done -> "compute_done"
  | Read_served -> "read_served"
  | Sequenced -> "sequenced"
  | Scheduled -> "scheduled"
  | Locks_acquired -> "locks_acquired"
  | Exec_start -> "exec_start"
  | Exec_done -> "exec_done"
  | Lock_timeout -> "lock_timeout"
  | Prepared -> "prepared"
  | Committed -> "committed"
  | Aborted -> "aborted"
  | Restarted -> "restarted"
  | Fault_drop -> "fault_drop"
  | Fault_delay -> "fault_delay"
  | Plan_build -> "plan_build"
  | Plan_evaluate -> "plan_evaluate"
  | Stratum_dispatch -> "stratum_dispatch"
  | Wal_ship -> "wal_ship"
  | Promote -> "promote"
  | Fastpath_commit -> "fastpath_commit"

let stage_to_int = function
  | Submit -> 0
  | Epoch_assign -> 1
  | Functor_write -> 2
  | Batch_ack -> 3
  | Epoch_close -> 4
  | Compute_start -> 5
  | Compute_done -> 6
  | Read_served -> 7
  | Sequenced -> 8
  | Scheduled -> 9
  | Locks_acquired -> 10
  | Exec_start -> 11
  | Exec_done -> 12
  | Lock_timeout -> 13
  | Prepared -> 14
  | Committed -> 15
  | Aborted -> 16
  | Restarted -> 17
  | Fault_drop -> 18
  | Fault_delay -> 19
  | Plan_build -> 20
  | Plan_evaluate -> 21
  | Stratum_dispatch -> 22
  | Wal_ship -> 23
  | Promote -> 24
  | Fastpath_commit -> 25

let stage_of_int = function
  | 0 -> Submit
  | 1 -> Epoch_assign
  | 2 -> Functor_write
  | 3 -> Batch_ack
  | 4 -> Epoch_close
  | 5 -> Compute_start
  | 6 -> Compute_done
  | 7 -> Read_served
  | 8 -> Sequenced
  | 9 -> Scheduled
  | 10 -> Locks_acquired
  | 11 -> Exec_start
  | 12 -> Exec_done
  | 13 -> Lock_timeout
  | 14 -> Prepared
  | 15 -> Committed
  | 16 -> Aborted
  | 17 -> Restarted
  | 18 -> Fault_drop
  | 19 -> Fault_delay
  | 20 -> Plan_build
  | 21 -> Plan_evaluate
  | 22 -> Stratum_dispatch
  | 23 -> Wal_ship
  | 24 -> Promote
  | 25 -> Fastpath_commit
  | n -> invalid_arg (Printf.sprintf "Trace.stage_of_int: %d" n)

(* Struct-of-arrays ring buffer: one slot is six ints across parallel
   arrays, written with plain stores.  [next] is the next write slot,
   [total] counts every emit so wrap-around is accounted for.

   Domain discipline (--runtime real): plain stores mean the ring is
   single-writer by contract.  Every emit site runs on the orchestrating
   domain — the real runtime's workers never trace; stratum activity is
   recorded by the orchestrator via [Stratum_dispatch] (batch sizes) and
   the ledger's per-stratum worker counts — so no per-event synchronization
   is needed, keeping the tracing-off fast path a single option test. *)
type t = {
  cap : int;
  sample : int;
  txn_a : int array;
  stage_a : int array;
  node_a : int array;
  ts_a : int array;
  arg_a : int array;
  tag_a : int array;
  mutable next : int;
  mutable total : int;
}

let create ?(capacity = 65536) ?(sample = 1) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity";
  if sample <= 0 then invalid_arg "Trace.create: sample";
  { cap = capacity;
    sample;
    txn_a = Array.make capacity 0;
    stage_a = Array.make capacity 0;
    node_a = Array.make capacity 0;
    ts_a = Array.make capacity 0;
    arg_a = Array.make capacity 0;
    tag_a = Array.make capacity 0;
    next = 0;
    total = 0 }

let sample_rate t = t.sample
let capacity t = t.cap

let would_sample t ~txn = txn < 0 || t.sample <= 1 || txn mod t.sample = 0

let emit t ~txn ~stage ~node ~ts ~arg ~tag =
  let i = t.next in
  t.txn_a.(i) <- txn;
  t.stage_a.(i) <- stage_to_int stage;
  t.node_a.(i) <- node;
  t.ts_a.(i) <- ts;
  t.arg_a.(i) <- arg;
  t.tag_a.(i) <- tag;
  let next = i + 1 in
  t.next <- (if next = t.cap then 0 else next);
  t.total <- t.total + 1

type event = {
  txn : int;
  stage : stage;
  node : int;
  ts : int;
  arg : int;
  tag : int;
}

let length t = if t.total < t.cap then t.total else t.cap
let total t = t.total
let dropped t = if t.total > t.cap then t.total - t.cap else 0

let event_at t i =
  { txn = t.txn_a.(i);
    stage = stage_of_int t.stage_a.(i);
    node = t.node_a.(i);
    ts = t.ts_a.(i);
    arg = t.arg_a.(i);
    tag = t.tag_a.(i) }

let iter t ~f =
  let n = length t in
  (* Oldest slot: [next] once wrapped, 0 before. *)
  let start = if t.total > t.cap then t.next else 0 in
  for k = 0 to n - 1 do
    let i = start + k in
    let i = if i >= t.cap then i - t.cap else i in
    f (event_at t i)
  done

let clear t =
  t.next <- 0;
  t.total <- 0
