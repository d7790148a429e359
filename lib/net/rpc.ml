type ('req, 'resp) wire =
  | Request of { call_id : int; payload : 'req }
  | Response of { call_id : int; payload : 'resp }
  | Oneway of 'req

type ('req, 'resp) t = {
  net : ('req, 'resp) wire Network.t;
  pending : (int, 'resp -> unit) Hashtbl.t;
  request_handlers :
    (Address.t, src:Address.t -> 'req -> reply:('resp -> unit) -> unit)
      Hashtbl.t;
  oneway_handlers : (Address.t, src:Address.t -> 'req -> unit) Hashtbl.t;
  mutable next_call_id : int;
}

let dispatch t addr ~src (msg : _ wire) =
  match msg with
  | Request { call_id; payload } -> (
      match Hashtbl.find_opt t.request_handlers addr with
      | None -> ()
      | Some handler ->
          let replied = ref false in
          let reply resp =
            if !replied then failwith "Rpc: reply called twice";
            replied := true;
            Network.send t.net ~src:addr ~dst:src
              (Response { call_id; payload = resp })
          in
          handler ~src payload ~reply)
  | Response { call_id; payload } -> (
      match Hashtbl.find_opt t.pending call_id with
      | None -> ()
      | Some k ->
          Hashtbl.remove t.pending call_id;
          k payload)
  | Oneway payload -> (
      match Hashtbl.find_opt t.oneway_handlers addr with
      | None -> ()
      | Some handler -> handler ~src payload)

let create engine rng ~latency ?faults () =
  let t =
    { net = Network.create engine rng ~latency ?faults ();
      pending = Hashtbl.create 256;
      request_handlers = Hashtbl.create 64;
      oneway_handlers = Hashtbl.create 64;
      next_call_id = 0 }
  in
  t

let engine t = Network.engine t.net

let ensure_registered t addr =
  Network.register t.net addr (fun ~src msg -> dispatch t addr ~src msg)

let serve t addr handler =
  Hashtbl.replace t.request_handlers addr handler;
  ensure_registered t addr

let serve_oneway t addr handler =
  Hashtbl.replace t.oneway_handlers addr handler;
  ensure_registered t addr

let call t ~src ~dst payload k =
  let call_id = t.next_call_id in
  t.next_call_id <- t.next_call_id + 1;
  Hashtbl.replace t.pending call_id k;
  Network.send t.net ~src ~dst (Request { call_id; payload })

let send t ~src ~dst payload =
  Network.send t.net ~src ~dst (Oneway payload)

let drop_stats t = Network.drop_stats t.net

let set_trace t f =
  Network.set_trace t.net (fun ~src ~dst _msg -> f ~src ~dst)

let set_fault_hook t f = Network.set_fault_hook t.net f

let outstanding_calls t = Hashtbl.length t.pending
