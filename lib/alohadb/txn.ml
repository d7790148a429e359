type op = Kernel.Txn.op =
  | Put of Functor_cc.Value.t
  | Delete
  | Add of int
  | Subtr of int
  | Max of int
  | Min of int
  | Call of {
      handler : string;
      read_set : string list;
      args : Functor_cc.Value.t list;
    }
  | Det of {
      handler : string;
      read_set : string list;
      args : Functor_cc.Value.t list;
      dependents : string list;
    }

type request =
  | Read_write of {
      writes : (string * op) list;
      precondition_keys : string list;
    }
  | Read_only of { keys : string list }
  | Read_at of { keys : string list; version : int }

type result =
  | Committed of { ts : Clocksync.Timestamp.t }
  | Aborted of {
      ts : Clocksync.Timestamp.t option;
      stage : [ `Install | `Compute ];
    }
  | Values of (string * Functor_cc.Value.t option) list

let read_write ?(precondition_keys = []) writes =
  Read_write { writes; precondition_keys }

let op_commutative = function
  | Add _ | Subtr _ | Max _ | Min _ -> true
  | Put _ | Delete | Call _ | Det _ -> false

let all_commutative ~writes ~precondition_keys =
  precondition_keys = []
  && writes <> []
  && List.for_all (fun (_, op) -> op_commutative op) writes

let pp_result fmt = function
  | Committed { ts } ->
      Format.fprintf fmt "Committed(ts=%a)" Clocksync.Timestamp.pp ts
  | Aborted { stage; _ } ->
      Format.fprintf fmt "Aborted(%s)"
        (match stage with `Install -> "install" | `Compute -> "compute")
  | Values kvs ->
      Format.fprintf fmt "Values(@[%a@])"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ")
           (fun fmt (k, v) ->
             match v with
             | None -> Format.fprintf fmt "%s=⊥" k
             | Some v -> Format.fprintf fmt "%s=%a" k Functor_cc.Value.pp v))
        kvs
