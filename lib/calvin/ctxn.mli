(** Calvin's transaction model (Thomson et al., SIGMOD 2012).

    Like ALOHA-DB, Calvin requires one-shot transactions with read and
    write sets known up front.  A transaction is the lowered static form
    of a {!Kernel.Txn.t}: its sets, its ops and its version.  After the
    deterministic locking phase every participating partition executes
    the ops ({!Deployment.apply}) on the {e same} full read-set values
    (redundant execution) and applies only the writes belonging to its
    own partition.

    Execution is deterministic and — matching the open-source Calvin
    implementation the paper compares against — cannot abort. *)

type t = {
  read_set : string list;
  write_set : string list;
  writes : (string * Kernel.Txn.op) list;  (** the static ops, in order *)
  version : int;  (** the version handler contexts see *)
}

val participants : partition_of:(string -> int) -> t -> int list
(** Sorted distinct partitions touched by the read and write sets. *)
