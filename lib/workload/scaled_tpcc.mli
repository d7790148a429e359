(** Scaled TPC-C (Rococo's variant, §V-A1): the database is one giant
    warehouse partitioned {e within} the warehouse, by item and by
    district.  Stress-tests distributed transactions: a NewOrder touches
    the district's partition plus the partition of every item it orders,
    so fan-out grows with the cluster instead of staying at two.

    The [w_ytd] field is removed by this partitioning, so Payment is not
    implemented (§V-A1), matching the paper.

    Keys: district data is ["d:<d>:..."] (district [d] lives on server
    [d mod n]); item/stock data is ["i:<i>:..."] (item [i] on server
    [i mod n]); order rows live with their district.  Contention is set by
    districts-per-host: each FE's NewOrders pick among the districts of
    the whole cluster uniformly.

    Engine-agnostic like {!Tpcc}: the functor facet uses the determinate
    "stpcc_neworder" functor; the static facet pre-assigns order ids and
    redraws invalid items. *)

type cfg = {
  districts : int;  (** total districts across the cluster *)
  items : int;
  customers : int;  (** per district *)
  ol_min : int;
  ol_max : int;
  invalid_item_fraction : float;
}

val default_cfg : n_servers:int -> districts_per_host:int -> cfg

(** Keys are built without [Printf] ({!Keys}).  District, item and stock
    keys come from tables that {!load} and {!generator} cover for their
    configuration; the strings are the same either way. *)

val dnoid_key : int -> string
val item_key : int -> string
val stock_key : int -> string
val order_key : d:int -> o:int -> string
val neworder_key : d:int -> o:int -> string
val orderline_key : d:int -> o:int -> n:int -> string

val register : register:(string -> Functor_cc.Registry.handler -> unit) -> unit
(** Registers "stpcc_neworder", "stpcc_stock" and "stpcc_orderline". *)

val load : cfg -> put:(string -> Functor_cc.Value.t -> unit) -> unit

type generator

val generator : cfg -> seed:int -> generator

val gen_neworder : generator -> Kernel.Txn.t
(** Scaled TPC-C transactions are not tied to a home server; any FE may
    coordinate any district's order. *)

module Neworder : Kernel.Intf.WORKLOAD with type cfg = cfg
