(** The YCSB-like microbenchmark from the Calvin evaluation (§V-A1).

    Each server holds one partition of keys split into K {e hot} keys and
    the remaining {e cold} keys; the contention index is CI = 1/K.  Every
    transaction reads 10 keys and increments each by 1, touching exactly
    one hot key on each participant partition; a distributed transaction
    spans two partitions (one of them the submitting server's).

    Partition sizing: the paper uses 1 M keys per partition; the default
    here is 100 k (configurable) — hot-key contention, which is what the
    experiment varies, is unaffected by the cold-key population, and the
    smaller default keeps simulation memory modest (see EXPERIMENTS.md).

    Keys are ["y:<partition>:<idx>"]; the [`Prefix] partitioner routes on
    the partition field.

    Increments are commutative ADD ops, so one static description serves
    every engine: ALOHA runs them as ADD functors, Calvin and 2PL execute
    the same ops as they are. *)

type cfg = {
  keys_per_partition : int;
  hot_keys : int;  (** K; contention index = 1/K *)
}

val cfg_of_contention_index : ?keys_per_partition:int -> float -> cfg
(** [cfg_of_contention_index ci] sets [hot_keys = 1 / ci] (e.g. CI 0.01 →
    100 hot keys). *)

val key : partition:int -> int -> string

val register : register:(string -> Functor_cc.Registry.handler -> unit) -> unit
(** No workload-specific handlers: increments use the ADD built-in. *)

val load : cfg -> n_servers:int -> put:(string -> Functor_cc.Value.t -> unit) -> unit

type generator

val generator : cfg -> n_partitions:int -> seed:int -> generator

val gen : generator -> fe:int -> Kernel.Txn.t
(** 10 ADD-1 ops: one hot + four cold keys on each of the two participant
    partitions. *)

module Workload : Kernel.Intf.WORKLOAD with type cfg = cfg
