(* One batch at a time: [run_batch] publishes the batch under the bell
   mutex, and the caller and every spawned domain claim its chunks from the
   batch's own cursor.  The cursor lives in the batch, not in [t], so a
   domain still holding a finished batch draws indices past that batch's
   end and can never claim a chunk of the next one. *)

type batch = {
  tasks : (unit -> unit) array;
  chunks : int;
  next : int Atomic.t;  (* next unclaimed chunk *)
  pending : int Atomic.t;  (* chunks not yet finished *)
}

type t = {
  domains : int;
  mutable handles : unit Domain.t array;
  (* per worker slot, written by the domain that ran the chunk *)
  w_completed : int Atomic.t array;
  w_stolen : int Atomic.t array;
  tasks_raised : int Atomic.t;
  (* idle bell: [gen] counts published batches; [gen] and [batch] are read
     and written under [bell] only *)
  bell : Mutex.t;
  bell_cv : Condition.t;
  mutable gen : int;
  mutable batch : batch;
  stop : bool Atomic.t;
  (* completion bell: the caller sleeps here while claimed chunks run
     elsewhere; the last finisher rings it *)
  done_lock : Mutex.t;
  done_cv : Condition.t;
  mutable shut : bool;
}

let sum cells = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 cells
let completed t = sum t.w_completed
let stolen t = sum t.w_stolen
let tasks_raised t = Atomic.get t.tasks_raised

let worker_stats t = Array.map Atomic.get t.w_completed

let idle =
  { tasks = [||]; chunks = 0; next = Atomic.make 0; pending = Atomic.make 0 }

(* Chunk [c] of [n] tasks in [chunks] contiguous chunks: the first
   [n mod chunks] chunks take one task more. *)
let run_chunk t b ~self c =
  let n = Array.length b.tasks in
  let base = n / b.chunks and rem = n mod b.chunks in
  let lo = (c * base) + min c rem in
  for i = lo to lo + base - 1 + if c < rem then 1 else 0 do
    (* per task, so one raise does not skip its chunk-mates *)
    try b.tasks.(i) () with _ -> Atomic.incr t.tasks_raised
  done;
  Atomic.incr t.w_completed.(self);
  if c mod t.domains <> self then Atomic.incr t.w_stolen.(self);
  (* The lock round-trip makes the last decrement visible to a caller
     about to sleep on [done_cv]. *)
  if Atomic.fetch_and_add b.pending (-1) = 1 then begin
    Mutex.lock t.done_lock;
    Condition.broadcast t.done_cv;
    Mutex.unlock t.done_lock
  end

let rec claim t b ~self =
  let c = Atomic.fetch_and_add b.next 1 in
  if c < b.chunks then begin
    run_chunk t b ~self c;
    claim t b ~self
  end

let worker_loop t self =
  let seen = ref 0 in
  while not (Atomic.get t.stop) do
    Mutex.lock t.bell;
    while t.gen = !seen && not (Atomic.get t.stop) do
      Condition.wait t.bell_cv t.bell
    done;
    seen := t.gen;
    let b = t.batch in
    Mutex.unlock t.bell;
    claim t b ~self
  done

let create ~domains =
  if domains < 1 then invalid_arg "Runtime.Pool.create: domains < 1";
  let t =
    { domains;
      handles = [||];
      w_completed = Array.init domains (fun _ -> Atomic.make 0);
      w_stolen = Array.init domains (fun _ -> Atomic.make 0);
      tasks_raised = Atomic.make 0;
      bell = Mutex.create ();
      bell_cv = Condition.create ();
      gen = 0;
      batch = idle;
      stop = Atomic.make false;
      done_lock = Mutex.create ();
      done_cv = Condition.create ();
      shut = false }
  in
  t.handles <-
    Array.init (domains - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let publish t b =
  Mutex.lock t.bell;
  t.batch <- b;
  t.gen <- t.gen + 1;
  Condition.broadcast t.bell_cv;
  Mutex.unlock t.bell

let run_batch t tasks =
  if t.shut then invalid_arg "Runtime.Pool.run_batch: pool is shut down";
  let n = Array.length tasks in
  if n > 0 then begin
    (* A few chunks per worker: coarse enough that claiming costs little
       per task, fine enough that the others take up a slow chunk's
       slack. *)
    let chunks = min n (4 * t.domains) in
    let b =
      { tasks; chunks; next = Atomic.make 0; pending = Atomic.make chunks }
    in
    if t.domains > 1 then publish t b;
    claim t b ~self:0;
    if Atomic.get b.pending > 0 then begin
      Mutex.lock t.done_lock;
      while Atomic.get b.pending > 0 do
        Condition.wait t.done_cv t.done_lock
      done;
      Mutex.unlock t.done_lock
    end;
    (* Unpublish without a ring, so the finished batch's tasks do not keep
       their data alive until the next batch. *)
    if t.domains > 1 then begin
      Mutex.lock t.bell;
      t.batch <- idle;
      Mutex.unlock t.bell
    end
  end

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Atomic.set t.stop true;
    publish t idle;
    Array.iter Domain.join t.handles;
    t.handles <- [||]
  end
