module Value = Functor_cc.Value
module Registry = Functor_cc.Registry
module Txn = Kernel.Txn

type cfg = {
  districts : int;
  items : int;
  customers : int;
  ol_min : int;
  ol_max : int;
  invalid_item_fraction : float;
}

let default_cfg ~n_servers ~districts_per_host =
  { districts = n_servers * districts_per_host;
    items = 1_000;
    customers = 120;
    ol_min = 5;
    ol_max = 15;
    invalid_item_fraction = 0.01 }

(* District, item and stock keys name a fixed domain: they come from
   tables that [load] and [generator] cover for the configuration (items
   past the catalog included, for the invalid lines), so handlers, which
   run after the load, find them there too.  Order, new-order and
   order-line ids are unbounded. *)
let dnoid_table = Keys.table (fun d -> Keys.int1 "d:" d ":noid")
let item_table = Keys.table (fun i -> Keys.int1 "i:" i ":item")
let stock_table = Keys.table (fun i -> Keys.int1 "i:" i ":stock")
let dnoid_key d = Keys.get dnoid_table d
let cust_key ~d c = Keys.int2 "d:" d ":cust:" c
let item_key i = Keys.get item_table i
let stock_key i = Keys.get stock_table i
let order_key ~d ~o = Keys.int2 "d:" d ":order:" o
let neworder_key ~d ~o = Keys.int2 "d:" d ":no:" o
let orderline_key ~d ~o ~n = Keys.int3 "d:" d ":ol:" o n

(* Invalid lines draw from [items + 1 .. items + 1000]. *)
let cover_keys cfg =
  Keys.cover dnoid_table cfg.districts;
  Keys.cover item_table (cfg.items + 1001);
  Keys.cover stock_table (cfg.items + 1001)

type line = { item : int; qty : int }

let encode_line l = Value.tup [ Value.int l.item; Value.int l.qty ]

let decode_line v =
  { item = Value.to_int (Value.nth v 0); qty = Value.to_int (Value.nth v 1) }

let encode_lines lines = Value.tup (List.map encode_line lines)
let decode_lines v = List.map decode_line (Value.to_tup v)

(* Determinate functor on the district counter.  Unlike plain TPC-C the
   item price reads are remote (items live on their own partitions), so
   functor computing performs cross-partition historical reads. *)
let neworder_handler (ctx : Registry.ctx) =
  let d = Value.to_int (Registry.arg ctx 0) in
  let c = Value.to_int (Registry.arg ctx 1) in
  let lines = decode_lines (Registry.arg ctx 2) in
  match Registry.read ctx ctx.Registry.key with
  | None -> Registry.Abort
  | Some noid ->
      let o = Value.to_int noid in
      let ol_writes =
        List.mapi
          (fun n l ->
            let price =
              match Registry.read ctx (item_key l.item) with
              | Some row -> Value.to_int (Value.nth row 0)
              | None -> 0
            in
            ( orderline_key ~d ~o ~n,
              Registry.Dep_put
                (Value.tup
                   [ Value.int l.item; Value.int l.qty;
                     Value.int (l.qty * price) ]) ))
          lines
      in
      Registry.Commit_det
        ( Value.int (o + 1),
          (order_key ~d ~o,
           Registry.Dep_put
             (Value.tup [ Value.int c; Value.int (List.length lines) ]))
          :: (neworder_key ~d ~o, Registry.Dep_put (Value.int 1))
          :: ol_writes )

let stock_handler (ctx : Registry.ctx) =
  let qty = Value.to_int (Registry.arg ctx 0) in
  match Registry.read ctx ctx.Registry.key with
  | None -> Registry.Abort
  | Some row ->
      let q = Value.to_int (Value.nth row 0) in
      let ytd = Value.to_int (Value.nth row 1) in
      let cnt = Value.to_int (Value.nth row 2) in
      let q' = if q - qty >= 10 then q - qty else q - qty + 91 in
      Registry.Commit
        (Value.tup [ Value.int q'; Value.int (ytd + qty); Value.int (cnt + 1) ])

(* OrderLine row for the static form (pre-assigned order id). *)
let orderline_handler (ctx : Registry.ctx) =
  let item = Value.to_int (Registry.arg ctx 0) in
  let qty = Value.to_int (Registry.arg ctx 1) in
  let price =
    match Registry.read ctx (item_key item) with
    | Some row -> Value.to_int (Value.nth row 0)
    | None -> 0
  in
  Registry.Commit
    (Value.tup [ Value.int item; Value.int qty; Value.int (qty * price) ])

let register ~register:reg =
  reg "stpcc_neworder" neworder_handler;
  reg "stpcc_stock" stock_handler;
  reg "stpcc_orderline" orderline_handler

let load cfg ~put =
  cover_keys cfg;
  for d = 0 to cfg.districts - 1 do
    put (dnoid_key d) (Value.int 1);
    for c = 0 to cfg.customers - 1 do
      put (cust_key ~d c) (Value.tup [ Value.int 0; Value.int 0 ])
    done
  done;
  for i = 0 to cfg.items - 1 do
    put (item_key i)
      (Value.tup [ Value.int (100 + ((i * 37) mod 9900)); Value.str "item" ]);
    put (stock_key i) (Value.tup [ Value.int 91; Value.int 0; Value.int 0 ])
  done

type generator = {
  cfg : cfg;
  rng : Sim.Rng.t;
  static_noid : (int, int ref) Hashtbl.t;
  seen : int array; (* item -> the last draw that picked it *)
  mutable draws : int;
}

let generator cfg ~seed =
  cover_keys cfg;
  { cfg; rng = Sim.Rng.create seed; static_noid = Hashtbl.create 256;
    seen = Array.make cfg.items (-1); draws = 0 }

let draw g =
  let cfg = g.cfg in
  let d = Sim.Rng.int g.rng cfg.districts in
  let c = Sim.Rng.int g.rng cfg.customers in
  let n_lines = Sim.Rng.uniform_int g.rng ~lo:cfg.ol_min ~hi:cfg.ol_max in
  let invalid = Sim.Rng.bernoulli g.rng cfg.invalid_item_fraction in
  let invalid_line = if invalid then Sim.Rng.int g.rng n_lines else -1 in
  (* Distinct items per order: one functor per key per transaction. *)
  g.draws <- g.draws + 1;
  let rec fresh_item () =
    let i = Sim.Rng.int g.rng cfg.items in
    if g.seen.(i) = g.draws then fresh_item ()
    else begin
      g.seen.(i) <- g.draws;
      i
    end
  in
  let lines =
    List.init n_lines (fun n ->
        let item =
          if n = invalid_line then cfg.items + 1 + Sim.Rng.int g.rng 1000
          else fresh_item ()
        in
        { item; qty = 1 + Sim.Rng.int g.rng 10 })
  in
  (d, c, lines, invalid)

let next_oid g ~d =
  let r =
    match Hashtbl.find_opt g.static_noid d with
    | Some r -> r
    | None ->
        let r = ref 1 in
        Hashtbl.add g.static_noid d r;
        r
  in
  let o = !r in
  incr r;
  o

let neworder_functor_desc (d, c, lines, _invalid) =
  let det =
    ( dnoid_key d,
      Txn.Det
        { handler = "stpcc_neworder";
          read_set = dnoid_key d :: List.map (fun l -> item_key l.item) lines;
          args = [ Value.int d; Value.int c; encode_lines lines ];
          dependents = [] } )
  in
  let stocks =
    List.map
      (fun l ->
        ( stock_key l.item,
          Txn.Call
            { handler = "stpcc_stock";
              read_set = [ stock_key l.item ];
              args = [ Value.int l.qty ] } ))
      lines
  in
  Txn.desc
    ~precondition_keys:(List.map (fun l -> stock_key l.item) lines)
    (det :: stocks)

let neworder_static_desc ~o (d, c, lines, _invalid) =
  let stocks =
    List.map
      (fun l ->
        ( stock_key l.item,
          Txn.Call
            { handler = "stpcc_stock";
              read_set = [ stock_key l.item ];
              args = [ Value.int l.qty ] } ))
      lines
  in
  let orderlines =
    List.mapi
      (fun n l ->
        ( orderline_key ~d ~o ~n,
          Txn.Call
            { handler = "stpcc_orderline";
              read_set = [ item_key l.item ];
              args = [ Value.int l.item; Value.int l.qty ] } ))
      lines
  in
  Txn.desc
    ((dnoid_key d, Txn.Add 1)
     :: (order_key ~d ~o,
         Txn.Put (Value.tup [ Value.int c; Value.int (List.length lines) ]))
     :: (neworder_key ~d ~o, Txn.Put (Value.int 1))
     :: (stocks @ orderlines))

let gen_neworder g =
  let a = draw g in
  Txn.dual
    ~functor_form:(neworder_functor_desc a)
    ~static_form:
      (lazy
        (let rec valid ((_, _, _, invalid) as a) =
           if invalid then valid (draw g) else a
         in
         let ((d, _, _, _) as a) = valid a in
         let o = next_oid g ~d in
         neworder_static_desc ~o a))

module Neworder = struct
  let name = "stpcc-neworder"

  type nonrec cfg = cfg

  let register cfg ~register:reg =
    ignore (cfg : cfg);
    register ~register:reg

  let load cfg ~n_servers:_ ~put = load cfg ~put

  let generator cfg ~n_servers:_ ~seed =
    let g = generator cfg ~seed in
    fun ~fe:_ -> gen_neworder g
end
