(* The FIFO holds entries, not jobs: a run of [count] equal-cost jobs is
   one entry however many jobs it holds.  [next] is the index of the
   run's next job to start; the entry leaves the queue when its last job
   starts.  [queued] counts the jobs (not entries) not yet started,
   outside a silent run's lanes. *)
type entry =
  | Job of { cost : int; k : unit -> unit }
  | Run of { cost : int; count : int; f : int -> unit; mutable next : int }

(* A silent run started on an idle pool: [count] jobs of [cost] from
   [t0], job [i] on lane [i mod workers], so lane [w] runs
   ⌈(count − w) / workers⌉ jobs back to back and round [r] starts at
   [t0 + r * cost].  [open_lanes] counts lanes whose completion event has
   not fired; each holds one busy worker. *)
type lanes = { t0 : int; cost : int; count : int; mutable open_lanes : int }

type t = {
  engine : Engine.t;
  workers : int;
  queue : entry Queue.t;
  mutable queued : int;
  mutable busy : int;
  mutable busy_time : int;
  mutable completed : int;
  mutable lanes : lanes option;
}

let create engine ~workers =
  if workers < 1 then invalid_arg "Worker_pool.create: workers must be >= 1";
  { engine; workers; queue = Queue.create (); queued = 0; busy = 0;
    busy_time = 0; completed = 0; lanes = None }

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

(* A lane's last job completes: credit its [jobs] at once. *)
let lane_done t l ~jobs =
  t.busy <- t.busy - 1;
  t.busy_time <- t.busy_time + (jobs * l.cost);
  t.completed <- t.completed + jobs;
  l.open_lanes <- l.open_lanes - 1;
  if l.open_lanes = 0 then t.lanes <- None;
  dispatch t

let submit_silent t ~cost ~count =
  check_cost cost;
  if t.busy > 0 || t.queued > 0 then submit_run t ~cost ~count ignore
  else if count > 0 then begin
    let n_lanes = min count t.workers in
    let l = { t0 = Engine.now t.engine; cost; count; open_lanes = n_lanes } in
    t.lanes <- Some l;
    t.busy <- n_lanes;
    for w = 0 to n_lanes - 1 do
      let jobs = (count - w + t.workers - 1) / t.workers in
      Engine.after t.engine (jobs * cost) (fun () -> lane_done t l ~jobs)
    done
  end

(* Mid-run reads of a silent run, from its lane schedule, as a reader
   that fires first at its instant sees them under single submits: the
   jobs started before now (the first round at [t0] itself), and on each
   open lane the rounds completed before now. *)
let unstarted t =
  match t.lanes with
  | None -> 0
  | Some l ->
      let now = Engine.now t.engine in
      let rounds =
        if l.cost = 0 then 1 else max 1 ((now - l.t0 + l.cost - 1) / l.cost)
      in
      max 0 (l.count - (rounds * t.workers))

let lane_jobs_done t l =
  let now = Engine.now t.engine in
  if l.cost = 0 || now <= l.t0 then 0
  else l.open_lanes * ((now - l.t0 - 1) / l.cost)

let workers t = t.workers

let queue_length t = t.queued + unstarted t

let busy_workers t = t.busy

let busy_time t =
  match t.lanes with
  | None -> t.busy_time
  | Some l -> t.busy_time + (lane_jobs_done t l * l.cost)

let jobs_completed t =
  match t.lanes with
  | None -> t.completed
  | Some l -> t.completed + lane_jobs_done t l
