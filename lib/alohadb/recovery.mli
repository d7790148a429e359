(** Crash recovery for one backend partition.

    Because functors are deterministic and read only historical versions,
    recovery is log replay: re-install every logged functor and let the
    engine recompute.  Recomputation reproduces the exact pre-crash
    values — including deferred dependent-key writes — reading remote
    partitions' immutable history where needed, which is the property
    §III-A borrows from ALOHA-KV's fault-tolerance design. *)

val max_final_version : Functor_cc.Compute_engine.t -> int
(** The highest version holding a committed or deleted final value, over
    every key (0 when there is none): the partition's value watermark,
    read by the ledger at each close and by the lag probe. *)

val replay :
  engine:Functor_cc.Compute_engine.t -> entries:Wal.entry list -> unit
(** Replay a log-entry sequence, oldest first, into a fresh engine:
    installs are re-installed as pending functors (the caller's
    recomputation evaluates them) and aborts re-applied.  Restart replays
    the backend's own durable log, replica promotion the shipped copy of
    the crashed primary's log. *)
