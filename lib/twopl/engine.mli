(** 2PL/2PC behind the {!Kernel.Intf.ENGINE} signature: the baseline
    {!Calvin.Deployment} of 2PL servers.  Lock-wait give-ups surface
    through [abort_keys] (["twopl.given_up"]); restarts and lock timeouts
    through [counter_keys]. *)

include Calvin.Deployment.S
