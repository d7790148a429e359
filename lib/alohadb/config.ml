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
  install_retry_us : int;
  ack_after_flush : bool;
  replicas : int;
  repl_detect_us : int;
  repl_retry_us : int;
  repl_sync : bool;
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
    install_retry_us = 0;
    ack_after_flush = false;
    replicas = 1;
    repl_detect_us = 3_000;
    repl_retry_us = 0;
    repl_sync = false;
    fastpath = false;
    cost_coord_us = 6;
    cost_install_base_us = 3;
    cost_install_us = 1;
    cost_get_us = 1;
    cost_compute_us = 2;
    cost_dispatch_us = 1;
    cost_msg_us = 1 }
