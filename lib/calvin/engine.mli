(** Calvin behind the {!Kernel.Intf.ENGINE} signature: the baseline
    {!Deployment} of Calvin servers.  Procedures cannot abort, so
    [abort_keys] is empty. *)

include Deployment.S
