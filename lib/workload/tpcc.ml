module Value = Functor_cc.Value
module Registry = Functor_cc.Registry
module Txn = Kernel.Txn

type cfg = {
  warehouses : int;
  districts : int;
  customers : int;
  items : int;
  ol_min : int;
  ol_max : int;
  invalid_item_fraction : float;
}

let default_cfg ~n_servers ~warehouses_per_host =
  { warehouses = n_servers * warehouses_per_host;
    districts = 10;
    customers = 120;
    items = 1_000;
    ol_min = 5;
    ol_max = 15;
    invalid_item_fraction = 0.01 }

(* ---- keys -------------------------------------------------------------- *)

let wytd_key w = Keys.int1 "w:" w ":wytd"
let dtax_key ~w ~d = Keys.int2 "w:" w ":dtax:" d
let dytd_key ~w ~d = Keys.int2 "w:" w ":dytd:" d
let dnoid_key ~w ~d = Keys.int2 "w:" w ":dnoid:" d
let cust_key ~w ~d c = Keys.int3 "w:" w ":cust:" d c
let item_key ~w i = Keys.int2 "w:" w ":item:" i
let stock_key ~w i = Keys.int2 "w:" w ":stock:" i
let order_key ~w ~d ~o = Keys.int3 "w:" w ":order:" d o
let neworder_key ~w ~d ~o = Keys.int3 "w:" w ":no:" d o
let orderline_key ~w ~d ~o ~n = Keys.int4 "w:" w ":ol:" d o n
let hist_key ~w ~d ~c uid = Keys.int4 "w:" w ":hist:" d c uid

(* ---- row encodings ------------------------------------------------------ *)

let item_row ~price = Value.tup [ Value.int price; Value.str "item" ]
let item_price row = Value.to_int (Value.nth row 0)

let stock_row ~qty ~ytd ~order_cnt ~remote_cnt =
  Value.tup
    [ Value.int qty; Value.int ytd; Value.int order_cnt;
      Value.int remote_cnt ]

let cust_row ~balance ~ytd_payment ~payment_cnt =
  Value.tup [ Value.int balance; Value.int ytd_payment; Value.int payment_cnt ]

(* ---- transaction arguments --------------------------------------------- *)

type line = { item : int; supply_w : int; qty : int }

let encode_line l =
  Value.tup [ Value.int l.item; Value.int l.supply_w; Value.int l.qty ]

let decode_line v =
  { item = Value.to_int (Value.nth v 0);
    supply_w = Value.to_int (Value.nth v 1);
    qty = Value.to_int (Value.nth v 2) }

let encode_lines lines = Value.tup (List.map encode_line lines)
let decode_lines v = List.map decode_line (Value.to_tup v)

(* ---- handlers ------------------------------------------------------------ *)

(* Determinate functor on the district's next-order-id key: assigns the
   order id, bumps the counter, and emits the Order / NewOrder / OrderLine
   rows as dynamically named deferred writes (§IV-E). *)
let neworder_handler (ctx : Registry.ctx) =
  let w = Value.to_int (Registry.arg ctx 0) in
  let d = Value.to_int (Registry.arg ctx 1) in
  let c = Value.to_int (Registry.arg ctx 2) in
  let lines = decode_lines (Registry.arg ctx 3) in
  match Registry.read ctx ctx.Registry.key with
  | None -> Registry.Abort
  | Some noid ->
      let o = Value.to_int noid in
      let ol_writes =
        List.mapi
          (fun n l ->
            let price =
              match Registry.read ctx (item_key ~w l.item) with
              | Some row -> item_price row
              | None -> 0
            in
            ( orderline_key ~w ~d ~o ~n,
              Registry.Dep_put
                (Value.tup
                   [ Value.int l.item; Value.int l.supply_w;
                     Value.int l.qty; Value.int (l.qty * price) ]) ))
          lines
      in
      let writes =
        (order_key ~w ~d ~o,
         Registry.Dep_put
           (Value.tup [ Value.int c; Value.int (List.length lines) ]))
        :: (neworder_key ~w ~d ~o, Registry.Dep_put (Value.int 1))
        :: ol_writes
      in
      Registry.Commit_det (Value.int (o + 1), writes)

(* Stock update for one order line: TPC-C quantity rule plus counters. *)
let stock_handler (ctx : Registry.ctx) =
  let qty = Value.to_int (Registry.arg ctx 0) in
  let remote = Value.to_int (Registry.arg ctx 1) in
  match Registry.read ctx ctx.Registry.key with
  | None -> Registry.Abort
  | Some row ->
      let q = Value.to_int (Value.nth row 0) in
      let ytd = Value.to_int (Value.nth row 1) in
      let order_cnt = Value.to_int (Value.nth row 2) in
      let remote_cnt = Value.to_int (Value.nth row 3) in
      let q' = if q - qty >= 10 then q - qty else q - qty + 91 in
      Registry.Commit
        (stock_row ~qty:q' ~ytd:(ytd + qty) ~order_cnt:(order_cnt + 1)
           ~remote_cnt:(remote_cnt + remote))

let payment_cust_handler (ctx : Registry.ctx) =
  let h = Value.to_int (Registry.arg ctx 0) in
  match Registry.read ctx ctx.Registry.key with
  | None -> Registry.Abort
  | Some row ->
      let balance = Value.to_int (Value.nth row 0) in
      let ytd = Value.to_int (Value.nth row 1) in
      let cnt = Value.to_int (Value.nth row 2) in
      Registry.Commit
        (cust_row ~balance:(balance - h) ~ytd_payment:(ytd + h)
           ~payment_cnt:(cnt + 1))

(* One OrderLine row for the static (pre-assigned order id) form: reads
   the item row for the price, as the determinate functor does under
   ALOHA. *)
let orderline_handler (ctx : Registry.ctx) =
  let item = Value.to_int (Registry.arg ctx 0) in
  let supply_w = Value.to_int (Registry.arg ctx 1) in
  let qty = Value.to_int (Registry.arg ctx 2) in
  let home_w = Value.to_int (Registry.arg ctx 3) in
  let price =
    match Registry.read ctx (item_key ~w:home_w item) with
    | Some row -> item_price row
    | None -> 0
  in
  Registry.Commit
    (Value.tup
       [ Value.int item; Value.int supply_w; Value.int qty;
         Value.int (qty * price) ])

let register ~register:reg =
  reg "tpcc_neworder" neworder_handler;
  reg "tpcc_stock" stock_handler;
  reg "tpcc_payment_cust" payment_cust_handler;
  reg "tpcc_orderline" orderline_handler

(* ---- loading ------------------------------------------------------------ *)

let load cfg ~put =
  for w = 0 to cfg.warehouses - 1 do
    put (wytd_key w) (Value.int 0);
    for d = 0 to cfg.districts - 1 do
      put (dtax_key ~w ~d) (Value.float 0.05);
      put (dytd_key ~w ~d) (Value.int 0);
      put (dnoid_key ~w ~d) (Value.int 1);
      for c = 0 to cfg.customers - 1 do
        put (cust_key ~w ~d c)
          (cust_row ~balance:0 ~ytd_payment:0 ~payment_cnt:0)
      done
    done;
    for i = 0 to cfg.items - 1 do
      put (item_key ~w i) (item_row ~price:(100 + ((i * 37) mod 9900)));
      put (stock_key ~w i) (stock_row ~qty:91 ~ytd:0 ~order_cnt:0 ~remote_cnt:0)
    done
  done

(* ---- generator ---------------------------------------------------------- *)

type generator = {
  cfg : cfg;
  n_servers : int;
  rng : Sim.Rng.t;
  static_noid : (int * int, int ref) Hashtbl.t;
      (* static engines pre-assign order ids (they cannot abort, §V-A2) *)
  mutable uid : int;
}

let generator cfg ~n_servers ~seed =
  if cfg.warehouses < n_servers then
    invalid_arg "Tpcc.generator: need at least one warehouse per host";
  { cfg; n_servers; rng = Sim.Rng.create seed;
    static_noid = Hashtbl.create 256; uid = 0 }

let per_host g = g.cfg.warehouses / g.n_servers

let home_warehouse g ~fe = fe + (g.n_servers * Sim.Rng.int g.rng (per_host g))

(* A warehouse hosted on a different server than [fe] (§V-A1: distributed
   transactions always access a second warehouse on another server). *)
let remote_warehouse g ~fe =
  if g.n_servers = 1 then home_warehouse g ~fe
  else begin
    let other =
      let h = Sim.Rng.int g.rng (g.n_servers - 1) in
      if h >= fe then h + 1 else h
    in
    other + (g.n_servers * Sim.Rng.int g.rng (per_host g))
  end

type neworder_args = {
  no_w : int;
  no_d : int;
  no_c : int;
  lines : line list;
  invalid : bool;
}

let draw_neworder g ~fe =
  let cfg = g.cfg in
  let w = home_warehouse g ~fe in
  let d = Sim.Rng.int g.rng cfg.districts in
  let c = Sim.Rng.int g.rng cfg.customers in
  let n_lines = Sim.Rng.uniform_int g.rng ~lo:cfg.ol_min ~hi:cfg.ol_max in
  let invalid = Sim.Rng.bernoulli g.rng cfg.invalid_item_fraction in
  let remote_line = Sim.Rng.int g.rng n_lines in
  let invalid_line = if invalid then Sim.Rng.int g.rng n_lines else -1 in
  (* Items are distinct within an order: each order line yields one stock
     functor, and one key carries exactly one functor per transaction. *)
  let seen = Hashtbl.create 16 in
  let fresh_item () =
    let rec draw () =
      let i = Sim.Rng.int g.rng cfg.items in
      if Hashtbl.mem seen i then draw ()
      else begin
        Hashtbl.add seen i ();
        i
      end
    in
    draw ()
  in
  let lines =
    List.init n_lines (fun n ->
        let item =
          if n = invalid_line then cfg.items + 1 + Sim.Rng.int g.rng 1000
          else fresh_item ()
        in
        let supply_w =
          if n = remote_line then remote_warehouse g ~fe else w
        in
        { item; supply_w; qty = 1 + Sim.Rng.int g.rng 10 })
  in
  { no_w = w; no_d = d; no_c = c; lines; invalid }

let next_oid g ~w ~d =
  let key = (w, d) in
  let r =
    match Hashtbl.find_opt g.static_noid key with
    | Some r -> r
    | None ->
        let r = ref 1 in
        Hashtbl.add g.static_noid key r;
        r
  in
  let o = !r in
  incr r;
  o

(* The functor facet: the district counter carries the determinate
   "tpcc_neworder" functor; each stock update is an independent user
   functor; the unmet stock precondition of an invalid item drives the
   coordinator's second-round abort. *)
let neworder_functor_desc { no_w = w; no_d = d; no_c = c; lines; _ } =
  let det =
    ( dnoid_key ~w ~d,
      Txn.Det
        { handler = "tpcc_neworder";
          read_set =
            dnoid_key ~w ~d :: List.map (fun l -> item_key ~w l.item) lines;
          args = [ Value.int w; Value.int d; Value.int c; encode_lines lines ];
          dependents = [] } )
  in
  let stocks =
    List.map
      (fun l ->
        ( stock_key ~w:l.supply_w l.item,
          Txn.Call
            { handler = "tpcc_stock";
              read_set = [ stock_key ~w:l.supply_w l.item ];
              args =
                [ Value.int l.qty;
                  Value.int (if l.supply_w = w then 0 else 1) ] } ))
      lines
  in
  Txn.desc
    ~precondition_keys:
      (List.map (fun l -> stock_key ~w:l.supply_w l.item) lines)
    (det :: stocks)

(* The static facet: the order id is pre-assigned from the generator's
   counter and every row is an explicit op, so the write set is fully
   known up front (what deterministic engines require, §V-A2). *)
let neworder_static_desc ~o { no_w = w; no_d = d; no_c = c; lines; _ } =
  let stocks =
    List.map
      (fun l ->
        ( stock_key ~w:l.supply_w l.item,
          Txn.Call
            { handler = "tpcc_stock";
              read_set = [ stock_key ~w:l.supply_w l.item ];
              args =
                [ Value.int l.qty;
                  Value.int (if l.supply_w = w then 0 else 1) ] } ))
      lines
  in
  let orderlines =
    List.mapi
      (fun n l ->
        ( orderline_key ~w ~d ~o ~n,
          Txn.Call
            { handler = "tpcc_orderline";
              read_set = [ item_key ~w l.item ];
              args =
                [ Value.int l.item; Value.int l.supply_w; Value.int l.qty;
                  Value.int w ] } ))
      lines
  in
  Txn.desc
    ((dnoid_key ~w ~d, Txn.Add 1)
     :: (order_key ~w ~d ~o,
         Txn.Put (Value.tup [ Value.int c; Value.int (List.length lines) ]))
     :: (neworder_key ~w ~d ~o, Txn.Put (Value.int 1))
     :: (stocks @ orderlines))

let gen_neworder g ~fe =
  let a = draw_neworder g ~fe in
  Txn.dual
    ~functor_form:(neworder_functor_desc a)
    ~static_form:
      (lazy
        ((* Static engines cannot abort, so their facet never references an
            invalid item: redraw until valid, exactly as the old
            Calvin-only generator did. *)
         let rec valid a = if a.invalid then valid (draw_neworder g ~fe) else a in
         let a = valid a in
         let o = next_oid g ~w:a.no_w ~d:a.no_d in
         neworder_static_desc ~o a))

let gen_payment g ~fe =
  let cfg = g.cfg in
  let w = home_warehouse g ~fe in
  let d = Sim.Rng.int g.rng cfg.districts in
  (* The paper's setup makes every transaction distributed: the customer
     lives in a warehouse on a different server. *)
  let cw = remote_warehouse g ~fe in
  let cd = Sim.Rng.int g.rng cfg.districts in
  let c = Sim.Rng.int g.rng cfg.customers in
  let h = 1 + Sim.Rng.int g.rng 5000 in
  g.uid <- g.uid + 1;
  (* Payment's write set is already static: one description serves both
     facets. *)
  Txn.make
    [ (wytd_key w, Txn.Add h);
      (dytd_key ~w ~d, Txn.Add h);
      (cust_key ~w:cw ~d:cd c,
       Txn.Call
         { handler = "tpcc_payment_cust";
           read_set = [ cust_key ~w:cw ~d:cd c ];
           args = [ Value.int h ] });
      (hist_key ~w ~d ~c g.uid, Txn.Put (Value.int h)) ]

(* ---- WORKLOAD instances -------------------------------------------------- *)

module Neworder = struct
  let name = "tpcc-neworder"

  type nonrec cfg = cfg

  let register cfg ~register:reg =
    ignore (cfg : cfg);
    register ~register:reg

  let load cfg ~n_servers:_ ~put = load cfg ~put

  let generator cfg ~n_servers ~seed =
    let g = generator cfg ~n_servers ~seed in
    fun ~fe -> gen_neworder g ~fe
end

module Payment = struct
  let name = "tpcc-payment"

  type nonrec cfg = cfg

  let register cfg ~register:reg =
    ignore (cfg : cfg);
    register ~register:reg

  let load cfg ~n_servers:_ ~put = load cfg ~put

  let generator cfg ~n_servers ~seed =
    let g = generator cfg ~n_servers ~seed in
    fun ~fe -> gen_payment g ~fe
end
