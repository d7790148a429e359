(* FIFO links keep a per-link record (keyed by a single packed int, so a
   send costs one int-hash probe and no tuple allocation) holding the link
   clock and a pending-delivery queue.  Instead of one engine event and one
   closure per message, each link arms at most one outstanding dispatcher
   event; the dispatcher delivers every queued message whose time has
   come, so same-instant bursts on a link coalesce into a single heap
   entry (ALOHA-KV-style request batching).  FIFO order is the queue
   order; delivery times are non-decreasing per link.

   An optional {!Faults.t} oracle is consulted on every send: it can drop
   the message (injected loss or partition cut-off, each counted under its
   own key), add delay, duplicate, or ask for the message to bypass the
   link's FIFO queue (reordering). *)

type 'msg link = {
  l_src : Address.t;
  l_dst : Address.t;
  mutable clock : int;
      (* Latest delivery time handed out on this link; later sends never
         deliver before it, which is the FIFO guarantee. *)
  pending : (int * 'msg) Queue.t;
  mutable armed : bool;  (* a dispatcher event is in the agenda *)
}

type drop_stats = {
  injected : int;  (* probabilistic link faults *)
  partitioned : int;  (* partition windows *)
  crashed : int;  (* always 0: no fault marks an endpoint crashed *)
  unregistered : int;  (* no handler at delivery time *)
}

type 'msg t = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  latency : Latency.t;
  faults : Faults.t option;
  handlers : (Address.t, src:Address.t -> 'msg -> unit) Hashtbl.t;
  links : (int, 'msg link) Hashtbl.t;
  mutable d_injected : int;
  mutable d_partitioned : int;
  mutable d_unregistered : int;
  mutable trace : (src:Address.t -> dst:Address.t -> 'msg -> unit) option;
  mutable fault_hook :
    (now:int -> dst:Address.t -> kind:[ `Drop | `Delay ] -> unit) option;
}

let create engine rng ~latency ?faults () =
  { engine; rng; latency; faults;
    handlers = Hashtbl.create 64;
    links = Hashtbl.create 256;
    d_injected = 0; d_partitioned = 0; d_unregistered = 0;
    trace = None; fault_hook = None }

let engine t = t.engine

let register t addr handler = Hashtbl.replace t.handlers addr handler

let set_trace t f = t.trace <- Some f

let set_fault_hook t f = t.fault_hook <- Some f

let note_fault t ~dst ~kind =
  match t.fault_hook with
  | None -> ()
  | Some f -> f ~now:(Sim.Engine.now t.engine) ~dst ~kind

let link_of t ~src ~dst =
  let id = (Address.to_int src lsl 16) lor Address.to_int dst in
  match Hashtbl.find_opt t.links id with
  | Some l -> l
  | None ->
      let l =
        { l_src = src; l_dst = dst; clock = 0;
          pending = Queue.create (); armed = false }
      in
      Hashtbl.add t.links id l;
      l

(* A message reaching an address nobody serves. *)
let count_undeliverable t = t.d_unregistered <- t.d_unregistered + 1

(* Deliver every queued message that is due, then re-arm for the next
   one (if any).  The handler is resolved once per dispatch: handlers
   only change from other engine events, never mid-dispatch. *)
let rec dispatch t l =
  let now = Sim.Engine.now t.engine in
  let handler = Hashtbl.find_opt t.handlers l.l_dst in
  let rec drain () =
    match Queue.peek_opt l.pending with
    | Some (at, msg) when at <= now ->
        ignore (Queue.pop l.pending);
        (match handler with
        | Some h -> h ~src:l.l_src msg
        | None -> count_undeliverable t);
        drain ()
    | Some _ | None -> ()
  in
  drain ();
  arm t l

and arm t l =
  match Queue.peek_opt l.pending with
  | None -> l.armed <- false
  | Some (at, _) ->
      l.armed <- true;
      Sim.Engine.schedule t.engine ~at (fun () -> dispatch t l)

(* Direct (non-FIFO) delivery: for fault-reordered messages that must
   overtake their link queue. *)
let deliver_direct t ~src ~dst ~at msg =
  Sim.Engine.schedule t.engine ~at (fun () ->
      match Hashtbl.find_opt t.handlers dst with
      | Some handler -> handler ~src msg
      | None -> count_undeliverable t)

let enqueue_fifo t ~src ~dst ~earliest msg =
  let l = link_of t ~src ~dst in
  let at = if earliest > l.clock then earliest else l.clock in
  l.clock <- at;
  Queue.push (at, msg) l.pending;
  if not l.armed then arm t l

let deliver t ~src ~dst ~earliest ~reorder msg =
  if not reorder then enqueue_fifo t ~src ~dst ~earliest msg
  else deliver_direct t ~src ~dst ~at:earliest msg

let send t ~src ~dst msg =
  (match t.trace with Some f -> f ~src ~dst msg | None -> ());
  let lat =
    if Address.equal src dst then Latency.local_delivery
    else Latency.sample t.latency t.rng
  in
  let now = Sim.Engine.now t.engine in
  match t.faults with
  | None -> deliver t ~src ~dst ~earliest:(now + lat) ~reorder:false msg
  | Some f -> (
      match Faults.decide f ~now ~src ~dst with
      | Faults.Drop_injected ->
          t.d_injected <- t.d_injected + 1;
          note_fault t ~dst ~kind:`Drop
      | Faults.Drop_partitioned ->
          t.d_partitioned <- t.d_partitioned + 1;
          note_fault t ~dst ~kind:`Drop
      | Faults.Deliver { extra_delay_us; copies; reorder } ->
          if extra_delay_us > 0 || copies > 1 || reorder then
            note_fault t ~dst ~kind:`Delay;
          let earliest = now + lat + extra_delay_us in
          for _ = 1 to copies do
            deliver t ~src ~dst ~earliest ~reorder msg
          done)

let drop_stats t =
  { injected = t.d_injected;
    partitioned = t.d_partitioned;
    crashed = 0;
    unregistered = t.d_unregistered }

let total_drops d = d.injected + d.partitioned + d.crashed + d.unregistered
