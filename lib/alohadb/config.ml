(* Execution backend: Sim keeps every event on the simulation domain;
   Real additionally evaluates each epoch's planned functors, one task per
   key run, on a shared pool of OCaml 5 domains. *)
type runtime_mode = Sim | Real

let runtime_mode_of_string = function
  | "sim" -> Some Sim
  | "real" -> Some Real
  | _ -> None

let runtime_mode_to_string = function Sim -> "sim" | Real -> "real"

type t = {
  cores : int;
  runtime_mode : runtime_mode;
  domains : int;
      (* worker domains in the real runtime's shared pool (>= 1) *)
  straggler_opt : bool;
  push_opt : bool;
  durability : bool;
  wal_flush_us : int;
  retry_us : int;
  sync_acks : bool;
  replicas : int;
  fastpath : bool;
  cost_coord_us : int;
  cost_install_base_us : int;
  cost_install_us : int;
  cost_get_us : int;
  cost_compute_us : int;
  cost_dispatch_us : int;
  cost_msg_us : int;
}

let default =
  { cores = 8;
    runtime_mode = Sim;
    domains = 4;
    straggler_opt = true;
    push_opt = true;
    durability = false;
    wal_flush_us = 500;
    retry_us = 0;
    sync_acks = false;
    replicas = 1;
    fastpath = false;
    cost_coord_us = 6;
    cost_install_base_us = 3;
    cost_install_us = 1;
    cost_get_us = 1;
    cost_compute_us = 2;
    cost_dispatch_us = 1;
    cost_msg_us = 1 }
