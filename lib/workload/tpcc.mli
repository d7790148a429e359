(** TPC-C (NewOrder + Payment), partitioned by warehouse (§V-A1).

    Like the paper's evaluation we implement the two transactions that
    dominate the TPC-C mix and drive distributed read-write behaviour.
    Data is partitioned by warehouse: every key starts with ["w:<w>:"] and
    the cluster's [`Prefix] partitioner routes warehouse [w] to server
    [w mod n].  The item catalog is replicated per warehouse (it is
    read-only), as real TPC-C deployments and Calvin both do.

    Scale knobs are configurable because the simulation does not need the
    full 100 k-item catalog to reproduce the paper's contention behaviour
    (items are accessed uniformly); defaults are chosen to keep memory
    modest and are recorded in EXPERIMENTS.md.

    The implementation is engine-agnostic: generators produce two-facet
    {!Kernel.Txn.t} values.

    Functor facet (ALOHA):
    - the district's next-order-id key holds a {e determinate functor}
      ("tpcc_neworder") that assigns the order id during functor
      computing and emits the Order / NewOrder / OrderLine rows as
      deferred writes — exactly the §IV-E/§V-A2 scheme;
    - each stock update is an independent user functor ("tpcc_stock");
    - Payment increments [w_ytd]/[d_ytd] with ADD functors and updates the
      customer row with "tpcc_payment_cust";
    - 1 % of NewOrders reference a non-existent item; the unmet
      precondition on the supply warehouse's partition triggers the
      coordinator's second-round abort.

    Static facet (Calvin, 2PL): order ids are {e pre-assigned} by the
    generator and invalid items are redrawn (deterministic engines cannot
    abort, §V-A2); order / order-line rows become explicit ops
    ("tpcc_orderline" computes the line amount from the item price), so
    the write set is fully known before execution. *)

type cfg = {
  warehouses : int;  (** total; home warehouse of FE [i] is ≡ i (mod n) *)
  districts : int;  (** per warehouse (TPC-C: 10) *)
  customers : int;  (** per district (TPC-C: 3000; default smaller) *)
  items : int;  (** catalog size (TPC-C: 100 000; default smaller) *)
  ol_min : int;  (** min order lines (5) *)
  ol_max : int;  (** max order lines (15) *)
  invalid_item_fraction : float;  (** NewOrders that must abort (0.01) *)
}
(** Every transaction touches a second warehouse on a different server,
    as in the Calvin papers' setup. *)

val default_cfg : n_servers:int -> warehouses_per_host:int -> cfg

(* -- keys (exposed for tests and invariant checks) -- *)

val wytd_key : int -> string
val dtax_key : w:int -> d:int -> string
val dytd_key : w:int -> d:int -> string
val dnoid_key : w:int -> d:int -> string
val cust_key : w:int -> d:int -> int -> string
val item_key : w:int -> int -> string
val stock_key : w:int -> int -> string
val order_key : w:int -> d:int -> o:int -> string
val neworder_key : w:int -> d:int -> o:int -> string
val orderline_key : w:int -> d:int -> o:int -> n:int -> string

(** The two transactions as {!Kernel.Intf.WORKLOAD} instances.  Both
    register "tpcc_neworder", "tpcc_stock", "tpcc_payment_cust" and
    "tpcc_orderline". *)

module Neworder : Kernel.Intf.WORKLOAD with type cfg = cfg
module Payment : Kernel.Intf.WORKLOAD with type cfg = cfg
