module Key = Mvstore.Key

module Txn_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Sim.Bits.mix
end)

module Txn_part_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a, p) (b, q) = Int.equal a b && Int.equal p q
  let hash (txn_id, partition) = Sim.Bits.mix txn_id + partition
end)

type t = {
  sim : Sim.Engine.t;
  data : Message.rpc;
  address : Net.Address.t;
  node_id : int;
  clock : Clocksync.Node_clock.t;
  partition_of : Key.t -> int;
  addr_of_partition : int -> Net.Address.t;
  my_partition : int;
  config : Config.t;
  durable : bool;
  hardened : bool;
  metrics : Sim.Metrics.t;
  obs : Obs.Ctl.t option;
  ledger : Obs.Ledger.t option;
  pool : Sim.Worker_pool.t;
  real_pool : Runtime.Pool.t option;
  part : Epoch.Participant.t;
  mutable be_down : bool;
}

let now t = Sim.Engine.now t.sim

let emit t ~txn ~stage ?(ts = -1) ?arg () =
  match t.obs with
  | None -> ()
  | Some ctl ->
      let ts = if ts < 0 then now t else ts in
      Obs.Ctl.emit ctl ~txn ~stage ~node:t.node_id ~ts ?arg ()

let lnote t f = match t.ledger with None -> () | Some l -> f l

let call_with_retry t ~partition req k =
  if not t.hardened then
    Net.Rpc.call t.data ~src:t.address
      ~dst:(t.addr_of_partition partition)
      req k
  else begin
    let answered = ref false in
    let once resp =
      if not !answered then begin
        answered := true;
        k resp
      end
    in
    let rec attempt () =
      Net.Rpc.call t.data ~src:t.address
        ~dst:(t.addr_of_partition partition)
        req once;
      Sim.Engine.after t.sim Config.retry_us (fun () ->
          if not !answered then attempt ())
    in
    attempt ()
  end

let remote_get t ~key ~version k =
  call_with_retry t ~partition:(t.partition_of key)
    (Message.Req (Message.Get_req { key; version }))
    (function
      | Message.Get_resp v -> k v
      | Message.Install_ack _ | Message.Abort_ack ->
          invalid_arg "remote_get: protocol mismatch")
