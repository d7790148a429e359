module Value = Functor_cc.Value

type t = {
  read_set : string list;
  write_set : string list;
  args : Value.t list;
}

let participants ~partition_of txn =
  List.map partition_of (txn.read_set @ txn.write_set)
  |> List.sort_uniq Int.compare

type proc =
  txn:t ->
  reads:(string * Value.t option) list ->
  (string * Value.t) list
