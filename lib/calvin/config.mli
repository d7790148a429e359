(** Calvin server cost model and fixed parameters.

    Mirrors the paper's experimental setup (§V-A2): the sequencer batches
    requests in 20 ms epochs ([default_epoch_us]; the epoch length is the
    one setting, [Kernel.Params.epoch_us]), storage is in-memory, and
    replication/fault tolerance is disabled.  Of the server's [cores],
    one is dedicated to the sequencer and one to the scheduler's
    single-threaded lock manager — the bottleneck the paper identifies —
    leaving the rest as executor workers.  Costs are simulated
    microseconds: sequencer work per transaction ([cost_seq_us]),
    lock-manager work per key ([cost_lock_us]; release costs the same),
    storage read and write per key, stored-procedure execution, and
    handling one network message. *)

val cores : int
val default_epoch_us : int
val cost_seq_us : int
val cost_lock_us : int
val cost_read_us : int
val cost_exec_us : int
val cost_write_us : int
val cost_msg_us : int
