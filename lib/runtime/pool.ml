(** Caller-runs fork-join pool of OCaml 5 domains for the real-parallelism
    runtime.

    The design is the classic per-worker-queue + work-stealing shape, with
    the calling domain as one of the workers:

    - [create ~domains:n] makes [n] worker slots, each owning one
      mutex-guarded FIFO, and spawns [n - 1] domains for slots [1..n-1].
      Slot 0 is the caller: the domain that creates the pool and drives
      the simulation.  [~domains:1] spawns nothing and every task runs on
      the caller.  Producers (the caller — the queues are MPSC-safe but
      ALOHA only ever submits from the domain driving the simulation) push
      round-robin over all slots with {!submit}, or to a chosen slot with
      {!submit_to} (used by tests to manufacture skew).
    - A spawned worker first drains its own queue, then scans the other
      queues and steals from the first non-empty one ([Mutex.try_lock] so
      a busy victim is skipped rather than waited on).  Only when every
      queue looks empty does it sleep on the shared idle bell.
    - The caller works only inside {!run_batch}, {!drain} and {!shutdown}:
      it pops slot 0, then steals, until the pool's in-flight count
      returns to zero; when nothing is left to take but tasks are still
      running on spawned workers, it sleeps on the completion bell.  So
      the caller never idles while work is queued, and an [n]-domain pool
      keeps exactly [n] domains busy.
    - {!run_batch} is the fork-join barrier: it slices the task array into
      contiguous chunks (a few per slot, so stealing can still even out
      skew without paying one queue round-trip per task), queues them,
      and helps until every chunk has run.
    - {!shutdown} runs everything already submitted, then joins the
      spawned domains; it is idempotent, and {!submit} after shutdown
      raises.

    Memory-model note: every task result handed between domains crosses
    at least one [Mutex] acquire/release or [Atomic] edge (queue mutex on
    the way in, the in-flight atomic + completion mutex on the way out),
    so plain mutable writes made by a task happen-before any read the
    caller — or a task of a later batch — performs after the barrier.
    Callers rely on this: level [k] freely reads record fields written by
    level [k-1] without per-field atomics. *)

type worker = {
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  (* per-worker occupancy counters: written only by the slot's own domain
     (the caller for slot 0), read (racily, gauge-style) by the caller *)
  w_completed : int Atomic.t;
  w_stolen : int Atomic.t;
}

type t = {
  workers : worker array;
  mutable handles : unit Domain.t array;
  stop : bool Atomic.t;
  (* tasks submitted and not yet finished; the barrier watches this *)
  in_flight : int Atomic.t;
  completed : int Atomic.t;
  stolen : int Atomic.t;
  tasks_raised : int Atomic.t;
  busy : int Atomic.t;
  busy_peak : int Atomic.t;
  queue_peak : int Atomic.t;
  (* idle bell: spawned workers sleep here; any submit (or shutdown)
     rings it *)
  bell : Mutex.t;
  bell_cv : Condition.t;
  work_sig : int Atomic.t;
  (* completion: the helping caller sleeps here; the last finisher rings
     it *)
  done_lock : Mutex.t;
  done_cv : Condition.t;
  rr : int Atomic.t;
  mutable shut : bool;
}

let n_workers t = Array.length t.workers
let completed t = Atomic.get t.completed
let stolen t = Atomic.get t.stolen
let tasks_raised t = Atomic.get t.tasks_raised
let busy_workers t = Atomic.get t.busy
let busy_peak t = Atomic.get t.busy_peak
let queue_peak t = Atomic.get t.queue_peak

(* Approximate (racy reads are fine for a gauge): submitted minus running. *)
let queue_depth t = max 0 (Atomic.get t.in_flight - Atomic.get t.busy)

(* Per-worker (tasks completed, tasks stolen, queue length) snapshot.  The
   counters are cumulative; the caller diffs consecutive snapshots around
   a batch for per-batch occupancy.  The queue length is a racy plain
   read — a gauge, like {!queue_depth}. *)
let worker_stats t =
  Array.map
    (fun w ->
      (Atomic.get w.w_completed, Atomic.get w.w_stolen, Queue.length w.queue))
    t.workers

let rec bump_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then bump_max cell v

let pop_own w =
  Mutex.lock w.lock;
  let task = if Queue.is_empty w.queue then None else Some (Queue.pop w.queue) in
  Mutex.unlock w.lock;
  task

(* Steal one task from the first victim whose lock we can grab non-empty.
   [self] is scanned last (it is rechecked anyway before sleeping). *)
let steal t ~self =
  let n = Array.length t.workers in
  let found = ref None in
  let i = ref 1 in
  while !found = None && !i <= n do
    let w = t.workers.((self + !i) mod n) in
    if Mutex.try_lock w.lock then begin
      if not (Queue.is_empty w.queue) then found := Some (Queue.pop w.queue);
      Mutex.unlock w.lock
    end;
    incr i
  done;
  (match !found with
  | Some _ ->
      Atomic.incr t.stolen;
      Atomic.incr t.workers.(self).w_stolen
  | None -> ());
  !found

let run_task t ~self task =
  let b = Atomic.fetch_and_add t.busy 1 + 1 in
  bump_max t.busy_peak b;
  (try task ()
   with _ -> Atomic.incr t.tasks_raised);
  Atomic.decr t.busy;
  Atomic.incr t.completed;
  Atomic.incr t.workers.(self).w_completed;
  (* Last finisher rings the completion bell for the barrier.  The lock
     round-trip makes the decrement visible to a sleeping waiter. *)
  if Atomic.fetch_and_add t.in_flight (-1) = 1 then begin
    Mutex.lock t.done_lock;
    Condition.broadcast t.done_cv;
    Mutex.unlock t.done_lock
  end

let worker_loop t self =
  let w = t.workers.(self) in
  let running = ref true in
  while !running do
    (* Read the signal BEFORE scanning: a submit that lands mid-scan
       bumps [work_sig], the recheck below sees the mismatch, and we
       rescan instead of sleeping through the wakeup. *)
    let seen = Atomic.get t.work_sig in
    match pop_own w with
    | Some task -> run_task t ~self task
    | None -> (
        match steal t ~self with
        | Some task -> run_task t ~self task
        | None ->
            (* Nothing anywhere.  Exit on stop (queues are drained first
               by construction: stop is only checked after a full failed
               scan), else sleep until a submit bumps [work_sig]. *)
            if Atomic.get t.stop then running := false
            else begin
              Mutex.lock t.bell;
              while
                Atomic.get t.work_sig = seen && not (Atomic.get t.stop)
              do
                Condition.wait t.bell_cv t.bell
              done;
              Mutex.unlock t.bell
            end)
  done

let create ~domains =
  if domains < 1 then invalid_arg "Runtime.Pool.create: domains < 1";
  let t =
    { workers =
        Array.init domains (fun _ ->
            { queue = Queue.create (); lock = Mutex.create ();
              w_completed = Atomic.make 0; w_stolen = Atomic.make 0 });
      handles = [||];
      stop = Atomic.make false;
      in_flight = Atomic.make 0;
      completed = Atomic.make 0;
      stolen = Atomic.make 0;
      tasks_raised = Atomic.make 0;
      busy = Atomic.make 0;
      busy_peak = Atomic.make 0;
      queue_peak = Atomic.make 0;
      bell = Mutex.create ();
      bell_cv = Condition.create ();
      work_sig = Atomic.make 0;
      done_lock = Mutex.create ();
      done_cv = Condition.create ();
      rr = Atomic.make 0;
      shut = false }
  in
  t.handles <-
    Array.init (domains - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let ring t =
  Mutex.lock t.bell;
  Atomic.incr t.work_sig;
  Condition.broadcast t.bell_cv;
  Mutex.unlock t.bell

(* Queue without ringing; callers ring once per submission burst. *)
let enqueue t ~worker task =
  if t.shut then invalid_arg "Runtime.Pool: submit after shutdown";
  let w = t.workers.(worker mod Array.length t.workers) in
  Atomic.incr t.in_flight;
  Mutex.lock w.lock;
  Queue.push task w.queue;
  let len = Queue.length w.queue in
  Mutex.unlock w.lock;
  bump_max t.queue_peak len

let submit_to t ~worker task =
  enqueue t ~worker task;
  ring t

let submit t task =
  let i = Atomic.fetch_and_add t.rr 1 in
  submit_to t ~worker:(i mod Array.length t.workers) task

(* Barrier with the caller as worker slot 0: run own work, then steal,
   until every submitted task (from any producer) finished. *)
let drain t =
  let w = t.workers.(0) in
  while Atomic.get t.in_flight > 0 do
    match pop_own w with
    | Some task -> run_task t ~self:0 task
    | None -> (
        match steal t ~self:0 with
        | Some task -> run_task t ~self:0 task
        | None ->
            (* Nothing left to take: the remaining tasks are running on
               spawned workers, and the last of them rings [done_cv]. *)
            Mutex.lock t.done_lock;
            while Atomic.get t.in_flight > 0 do
              Condition.wait t.done_cv t.done_lock
            done;
            Mutex.unlock t.done_lock)
  done

let run_batch t tasks =
  let n = Array.length tasks in
  if n > 0 then begin
    let nw = Array.length t.workers in
    (* A few chunks per worker: big enough to amortize the queue mutex,
       small enough that stealing can rebalance a skewed batch. *)
    let chunks = min n (nw * 4) in
    let base = n / chunks and rem = n mod chunks in
    let off = ref 0 in
    for c = 0 to chunks - 1 do
      let len = base + if c < rem then 1 else 0 in
      let lo = !off in
      off := lo + len;
      enqueue t ~worker:c (fun () ->
          for i = lo to lo + len - 1 do
            (* per task, so one raise does not skip its chunk-mates *)
            try tasks.(i) () with _ -> Atomic.incr t.tasks_raised
          done)
    done;
    if nw > 1 then ring t;
    drain t
  end

let shutdown t =
  if not t.shut then begin
    (* Run what is already queued (slot 0's share included) before the
       spawned workers are told to exit, so nothing submitted is lost. *)
    drain t;
    t.shut <- true;
    Atomic.set t.stop true;
    ring t;
    Array.iter Domain.join t.handles;
    t.handles <- [||]
  end
