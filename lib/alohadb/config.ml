(* Execution backend: Sim keeps every event on the simulation domain;
   Real additionally evaluates each epoch's planned functors, one task per
   key run, on a shared pool of OCaml 5 domains. *)
type runtime_mode = Sim | Real

let runtime_mode_of_string = function
  | "sim" -> Some Sim
  | "real" -> Some Real
  | _ -> None

type t = {
  runtime_mode : runtime_mode;
  domains : int;
      (* worker domains in the real runtime's shared pool (>= 1) *)
  straggler_opt : bool;
  push_opt : bool;
  replicas : int;
  fastpath : bool;
}

let default =
  { runtime_mode = Sim;
    domains = 4;
    straggler_opt = true;
    push_opt = true;
    replicas = 1;
    fastpath = false }

let cores = 8
let wal_flush_us = 500
let retry_us = 10_000
let cost_coord_us = 6
let cost_install_base_us = 3
let cost_install_us = 1
let cost_get_us = 1
let cost_compute_us = 2
let cost_dispatch_us = 1
let cost_msg_us = 1
