type t = {
  read_set : string list;
  write_set : string list;
  writes : (string * Kernel.Txn.op) list;
  version : int;
}

let participants ~partition_of txn =
  List.map partition_of (txn.read_set @ txn.write_set)
  |> List.sort_uniq Int.compare
