(** Fork-join pool of OCaml 5 domains for the real-parallelism runtime.
    The caller is worker slot 0 and [create ~domains:n] spawns [n - 1]
    more.  {!run_batch} cuts its tasks into [min n_tasks (4 * n)]
    contiguous chunks that all [n] claim from one shared cursor, so no task
    waits in a busy domain's queue.

    Barrier: when {!run_batch} returns every task has run, and its plain
    writes happen-before all the caller does next, the tasks of its next
    batch on any domain included.  Level [k + 1] of a plan reads the
    fields level [k] wrote without per-field atomics on this guarantee. *)

type t

val create : domains:int -> t
(** Raises [Invalid_argument] when [domains < 1]. *)

val run_batch : t -> (unit -> unit) array -> unit
(** A raising task is counted in {!tasks_raised} and skips no other task.
    Call from the creating domain; raises [Invalid_argument] after
    {!shutdown}. *)

val shutdown : t -> unit
(** Joins the spawned domains; idempotent. *)

val tasks_raised : t -> int

(** Cumulative chunk counts.  Chunk [c] is stolen when a slot other than
    its home slot [c mod domains] runs it; with one shared cursor that
    depends only on claim interleaving, so it says nothing about
    balance. *)

val completed : t -> int
val stolen : t -> int

val worker_stats : t -> int array
(** Completed chunks per slot. *)
