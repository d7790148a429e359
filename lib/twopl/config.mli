(** Fixed parameters and cost model of the 2PL/2PC baseline: waiting
    longer than [lock_timeout_us] for a lock aborts the transaction
    (deadlock resolution by timeout), which the client restarts up to
    [max_retries] times after a backoff of [retry_backoff_us], jittered
    uniformly.  Costs are simulated microseconds ([cost_lock_us] is
    per-key lock-table work). *)

val cores : int
val lock_timeout_us : int
val max_retries : int
val retry_backoff_us : int
val cost_lock_us : int
val cost_read_us : int
val cost_exec_us : int
val cost_write_us : int
val cost_msg_us : int
