type uid = int

let seq_bits = 10
let idx_bits = 20

let uid_make ~epoch ~seq_id ~idx =
  if seq_id < 0 || seq_id >= 1 lsl seq_bits then invalid_arg "uid_make: seq";
  if idx < 0 || idx >= 1 lsl idx_bits then invalid_arg "uid_make: idx";
  (epoch lsl (seq_bits + idx_bits)) lor (seq_id lsl idx_bits) lor idx

type routed = {
  uid : uid;
  origin : int;
  submitted_at : int;
  txn : Ctxn.t;
}

type wire =
  | Batch of { epoch : int; seq_id : int; txns : routed list }
  | Reads of {
      uid : uid;
      from : int;
      values : (string * Functor_cc.Value.t option) list;
    }
  | Done of { uid : uid; partition : int }

type rpc = (wire, unit) Net.Rpc.t
