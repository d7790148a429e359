module Value = Functor_cc.Value

type t = {
  proc : string;
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

type registry = (string, proc) Hashtbl.t

let create_registry () = Hashtbl.create 16

let register registry name proc =
  if Hashtbl.mem registry name then
    invalid_arg (Printf.sprintf "Ctxn.register: duplicate procedure %S" name);
  Hashtbl.add registry name proc

let find registry name = Hashtbl.find_opt registry name
