(** The frontend role of one server: it accepts client requests,
    assigns timestamps inside the epoch validity window (or the
    straggler window, §III-C), holds requests while no window is usable,
    transforms read-write transactions into per-partition functor
    batches, drives the write-only phase of both commit lanes (with the
    second-round abort on precondition failure), delays latest-version
    reads to their epoch's close (§III-B), and completes coordinated
    transactions on the decisions of their {!Tracker}. *)

type t

val create : node:Node.t -> backend:Backend.t -> t

val submit : t -> Txn.request -> (Txn.result -> unit) -> unit

val on_batch_done :
  t -> txn_id:int -> partition:int -> max_retrieved_at:int -> aborted:bool ->
  unit
(** A participant partition's Batch_done (duplicates are ignored). *)

val drain_held : t -> unit
(** Retry every held request (a window may have opened). *)

val release_reads : t -> epoch:int -> unit
(** Serve the delayed reads of every epoch up to [epoch]. *)

val held_requests : t -> int
