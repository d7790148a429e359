(** Partitioning of string keys across a fixed set of partitions.

    Both systems under study hash-partition the keyspace (ALOHA-DB §III-D:
    "key-functor pairs in a hash-partitioned distributed table").
    Workloads that need {e directed} placement (e.g. TPC-C
    partition-by-warehouse) embed an integer in the key with their key
    codec, and the partitioner routes on it; every other key is hashed. *)

type t

val by_prefix_int : partitions:int -> t
(** Route on the decimal integer following the first ':' in the key (e.g.
    ["w:3:ytd"] goes to partition [3 mod partitions]).  A key with no such
    prefix goes to its FNV-1a hash modulo the partition count. *)

val partition_of : t -> string -> int
(** Partition index in [0, partitions). *)
