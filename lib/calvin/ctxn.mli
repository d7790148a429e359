(** Calvin's transaction model (Thomson et al., SIGMOD 2012).

    Like ALOHA-DB, Calvin requires one-shot transactions with read and
    write sets known up front.  A transaction is a stored-procedure name
    plus arguments; after the deterministic locking phase every
    participating partition evaluates the {e same} procedure on the
    {e same} full read-set values (redundant execution) and applies only
    the writes belonging to its own partition.

    Procedures are deterministic and — matching the open-source Calvin
    implementation the paper compares against — cannot abort. *)

type t = {
  proc : string;  (** registered procedure name *)
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

type registry

val create_registry : unit -> registry
val register : registry -> string -> proc -> unit
val find : registry -> string -> proc option
