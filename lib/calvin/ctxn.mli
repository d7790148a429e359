(** Calvin's transaction model (Thomson et al., SIGMOD 2012).

    Like ALOHA-DB, Calvin requires one-shot transactions with read and
    write sets known up front.  A transaction is the arguments of the one
    stored procedure ({!Deployment.apply_proc}); after the deterministic
    locking phase every participating partition evaluates the procedure
    on the {e same} full read-set values (redundant execution) and
    applies only the writes belonging to its own partition.

    Procedures are deterministic and — matching the open-source Calvin
    implementation the paper compares against — cannot abort. *)

type t = {
  read_set : string list;
  write_set : string list;
  args : Functor_cc.Value.t list;
}

val participants : partition_of:(string -> int) -> t -> int list
(** Sorted distinct partitions touched by the read and write sets. *)

type proc =
  txn:t ->
  reads:(string * Functor_cc.Value.t option) list ->
  (string * Functor_cc.Value.t) list
(** A stored procedure: the transaction (for its write set and arguments)
    and the full read-set values in, the full write map out. *)
