(** One server of the 2PL/2PC baseline: a single-version partition guarded
    by a strict two-phase-locking table, plus a coordinator side that
    drives lock-acquire / execute / two-phase-commit for client
    transactions and restarts them (bounded, with jittered backoff) after
    lock timeouts.

    This is the paper's "transaction-level concurrency control" strawman:
    a transaction can commit its keys only after {e every} conflict at
    {e every} participant is resolved, and the 2PC rounds enlarge the
    contention footprint — which is why it collapses under contention
    while ALOHA-DB does not. *)

include
  Calvin.Deployment.SERVER
    with type req = Message.req
     and type resp = Message.resp
(** Transactions reuse Calvin's one-shot stored-procedure model.
    [create] turns on lifecycle tracing (submit / locks / prepared /
    committed / restarted / timeouts) when the params carry an obs
    handle, and seeds each server's backoff jitter from the deployment
    seed plus its node id.  [submit] runs a transaction to completion,
    retrying on lock timeouts; its callback fires when it finally commits
    or is given up after [max_retries].  [gauges] are the lock requests
    still waiting locally and the staged-but-uncommitted 2PC
    participants. *)
