(* The FIFO holds entries, not jobs: a run of [count] equal-cost jobs is
   one entry however many jobs it holds.  [next] is the index of the
   run's next job to start; the entry leaves the queue when its last job
   starts.  [queued] counts the jobs (not entries) not yet started. *)
type entry =
  | Job of { cost : int; k : unit -> unit }
  | Run of { cost : int; count : int; f : int -> unit; mutable next : int }

type t = {
  engine : Engine.t;
  workers : int;
  queue : entry Queue.t;
  mutable queued : int;
  mutable busy : int;
  mutable busy_time : int;
  mutable completed : int;
}

let create engine ~workers =
  if workers < 1 then invalid_arg "Worker_pool.create: workers must be >= 1";
  { engine; workers; queue = Queue.create (); queued = 0; busy = 0;
    busy_time = 0; completed = 0 }

let complete t ~cost =
  t.busy <- t.busy - 1;
  t.busy_time <- t.busy_time + cost;
  t.completed <- t.completed + 1

(* Start the queue's next job if a worker is free. *)
let rec dispatch t =
  if t.busy < t.workers && t.queued > 0 then begin
    t.busy <- t.busy + 1;
    t.queued <- t.queued - 1;
    match Queue.peek t.queue with
    | Job { cost; k } ->
        ignore (Queue.take t.queue);
        Engine.after t.engine cost (fun () ->
            complete t ~cost;
            k ();
            dispatch t)
    | Run r ->
        let i = r.next in
        r.next <- i + 1;
        if r.next = r.count then ignore (Queue.take t.queue);
        Engine.after t.engine r.cost (fun () ->
            complete t ~cost:r.cost;
            r.f i;
            dispatch t)
  end

let check_cost cost =
  if cost < 0 then invalid_arg "Worker_pool.submit: negative cost"

let submit t ~cost k =
  check_cost cost;
  Queue.add (Job { cost; k }) t.queue;
  t.queued <- t.queued + 1;
  dispatch t

let submit_run t ~cost ~count f =
  check_cost cost;
  if count > 0 then begin
    Queue.add (Run { cost; count; f; next = 0 }) t.queue;
    t.queued <- t.queued + count;
    (* [count] single submits would call [dispatch] once each; it starts
       at most one job per call, and once a call starts nothing, the
       rest cannot either. *)
    let rec fill n =
      if n > 0 && t.busy < t.workers && t.queued > 0 then begin
        dispatch t;
        fill (n - 1)
      end
    in
    fill count
  end

let workers t = t.workers

let queue_length t = t.queued

let busy_workers t = t.busy

let busy_time t = t.busy_time

let jobs_completed t = t.completed
