(* The headline correctness property: ALOHA-DB execution is equivalent to
   serial execution in timestamp order.

   Random batches of read-write transactions — blind writes, numeric
   functors, deletes, and guarded (abortable) conditional transfers — are
   submitted to a 3-server cluster at random times.  An oracle then
   replays the committed/aborted decisions serially in timestamp order
   over a plain map and must reproduce (a) each transaction's
   commit/abort outcome and (b) the exact final database state. *)

module Value = Functor_cc.Value
module Txn = Alohadb.Txn
module Cluster = Alohadb.Cluster
module Ts = Clocksync.Timestamp

let ts_compare (a : Ts.t) (b : Ts.t) = Int.compare (a :> int) (b :> int)

(* ---- transaction specs -------------------------------------------------- *)

type op_spec =
  | SPut of int
  | SAdd of int
  | SSubtr of int
  | SDelete

type txn_spec =
  | Multi of (int * op_spec) list  (* key index -> op *)
  | Transfer of { src : int; dst : int; amount : int }
      (* guarded: abort when src balance < amount (Fig. 5 T3) *)

let n_keys = 24
let n_servers = 3

let key_name i = Printf.sprintf "k:%d:x" (i mod n_servers) ^ string_of_int i

(* guarded transfer handler: both functors read the source key and make
   the same abort decision (§IV-C). *)
let transfer_handler (ctx : Functor_cc.Registry.ctx) =
  let src_key = Value.to_str (Functor_cc.Registry.arg ctx 0) in
  let amount = Value.to_int (Functor_cc.Registry.arg ctx 1) in
  let delta = Value.to_int (Functor_cc.Registry.arg ctx 2) in
  let src_balance =
    match Functor_cc.Registry.read ctx src_key with
    | Some v -> Value.to_int v
    | None -> 0
  in
  if src_balance < amount then Functor_cc.Registry.Abort
  else begin
    let own =
      match Functor_cc.Registry.read ctx ctx.Functor_cc.Registry.key with
      | Some v -> Value.to_int v
      | None -> 0
    in
    Functor_cc.Registry.Commit (Value.int (own + delta))
  end

let request_of_spec = function
  | Multi ops ->
      Txn.read_write
        (List.map
           (fun (ki, op) ->
             let key = key_name ki in
             match op with
             | SPut v -> (key, Txn.Put (Value.int v))
             | SAdd n -> (key, Txn.Add n)
             | SSubtr n -> (key, Txn.Subtr n)
             | SDelete -> (key, Txn.Delete))
           ops)
  | Transfer { src; dst; amount } ->
      let src_key = key_name src and dst_key = key_name dst in
      let args delta =
        [ Value.str src_key; Value.int amount; Value.int delta ]
      in
      Txn.read_write
        [ (src_key,
           Txn.Call
             { handler = "guarded_xfer"; read_set = [ src_key ];
               args = args (-amount) });
          (dst_key,
           Txn.Call
             { handler = "guarded_xfer"; read_set = [ src_key; dst_key ];
               args = args amount }) ]

(* ---- the oracle ---------------------------------------------------------- *)

(* Serial replay over a plain int-option map, in timestamp order.  Returns
   the final state and each transaction's expected outcome. *)
let oracle (specs : (Ts.t * txn_spec) list) =
  let state : (string, int option) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to n_keys - 1 do
    Hashtbl.replace state (key_name i) (Some 100)
  done;
  let value key =
    match Hashtbl.find_opt state key with Some v -> v | None -> None
  in
  let outcomes =
    List.map
      (fun (ts, spec) ->
        match spec with
        | Multi ops ->
            (* Built-in numeric functors are total (absent = 0), so Multi
               transactions always commit. *)
            List.iter
              (fun (ki, op) ->
                let key = key_name ki in
                let base = match value key with Some v -> v | None -> 0 in
                match op with
                | SPut v -> Hashtbl.replace state key (Some v)
                | SAdd n -> Hashtbl.replace state key (Some (base + n))
                | SSubtr n -> Hashtbl.replace state key (Some (base - n))
                | SDelete -> Hashtbl.replace state key None)
              ops;
            (ts, true)
        | Transfer { src; dst; amount } ->
            let src_key = key_name src and dst_key = key_name dst in
            let balance = match value src_key with Some v -> v | None -> 0 in
            if balance < amount then (ts, false)
            else begin
              let cur k = match value k with Some v -> v | None -> 0 in
              (* same-key transfer applies both deltas to one key *)
              Hashtbl.replace state src_key (Some (cur src_key - amount));
              Hashtbl.replace state dst_key (Some (cur dst_key + amount));
              (ts, true)
            end)
      (List.sort (fun (a, _) (b, _) -> ts_compare a b) specs)
  in
  (state, outcomes)

(* ---- driving the cluster -------------------------------------------------- *)

let run_case (specs : txn_spec list) =
  let registry = Functor_cc.Registry.with_builtins () in
  Functor_cc.Registry.register registry "guarded_xfer" transfer_handler;
  let options =
    { Cluster.default_options with n_servers }
  in
  let c = Cluster.create ~registry options in
  for i = 0 to n_keys - 1 do
    Cluster.load c ~key:(key_name i) (Value.int 100)
  done;
  Cluster.start c;
  let sim = Cluster.sim c in
  let results : (Ts.t * txn_spec * bool) list ref = ref [] in
  let pending = ref 0 in
  let arrival_rng = Sim.Rng.create 97 in
  List.iteri
    (fun i spec ->
      incr pending;
      let fe = i mod n_servers in
      let at = 1_000 + Sim.Rng.int arrival_rng 60_000 in
      Sim.Engine.schedule sim ~at (fun () ->
          Cluster.submit c ~fe (request_of_spec spec) (fun result ->
              decr pending;
              match result with
              | Txn.Committed { ts } -> results := (ts, spec, true) :: !results
              | Txn.Aborted { ts = Some ts; _ } ->
                  results := (ts, spec, false) :: !results
              | Txn.Aborted { ts = None; _ } | Txn.Values _ ->
                  Alcotest.fail "unexpected result shape")))
    specs;
  Sim.Engine.run ~until:500_000 sim;
  Alcotest.(check int) "all transactions resolved" 0 !pending;
  (c, !results)

let final_engine_state c =
  let state : (string, int option) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to n_keys - 1 do
    let key = key_name i in
    let server = Cluster.server c (Cluster.partition_of c key) in
    let got = ref None in
    Functor_cc.Compute_engine.get
      (Alohadb.Server.engine server)
      ~key:(Mvstore.Key.intern key) ~version:max_int
      (fun v -> got := Some v);
    match !got with
    | Some (Some v) -> Hashtbl.replace state key (Some (Value.to_int v))
    | Some None -> Hashtbl.replace state key None
    | None -> Alcotest.fail "read did not resolve synchronously"
  done;
  state

let check_case specs =
  let c, results = run_case specs in
  (* 1. Outcomes match the serial oracle. *)
  let specs_with_ts = List.map (fun (ts, spec, _) -> (ts, spec)) results in
  let _, oracle_outcomes = oracle specs_with_ts in
  let engine_outcomes =
    List.sort (fun (a, _, _) (b, _, _) -> ts_compare a b) results
    |> List.map (fun (ts, _, ok) -> (ts, ok))
  in
  List.iter2
    (fun (ts_o, ok_o) (ts_e, ok_e) ->
      if ts_compare ts_o ts_e <> 0 then Alcotest.fail "timestamp mismatch";
      if ok_o <> ok_e then
        Alcotest.failf "outcome mismatch at %s: oracle=%b engine=%b"
          (Format.asprintf "%a" Ts.pp ts_o)
          ok_o ok_e)
    oracle_outcomes engine_outcomes;
  (* 2. Final states identical. *)
  let oracle_state, _ = oracle specs_with_ts in
  let engine_state = final_engine_state c in
  for i = 0 to n_keys - 1 do
    let key = key_name i in
    let o = Option.join (Hashtbl.find_opt oracle_state key) in
    let e = Option.join (Hashtbl.find_opt engine_state key) in
    if o <> e then
      Alcotest.failf "state mismatch on %s: oracle=%s engine=%s" key
        (match o with Some v -> string_of_int v | None -> "⊥")
        (match e with Some v -> string_of_int v | None -> "⊥")
  done;
  true

(* ---- generators ----------------------------------------------------------- *)

let op_gen =
  QCheck2.Gen.(oneof
    [ map (fun v -> SPut v) (int_range 0 500);
      map (fun n -> SAdd n) (int_range 1 50);
      map (fun n -> SSubtr n) (int_range 1 50);
      return SDelete ])

let multi_gen =
  QCheck2.Gen.(
    let* n_ops = int_range 1 4 in
    let* raw =
      list_size (return n_ops) (pair (int_range 0 (n_keys - 1)) op_gen)
    in
    (* one op per key within a transaction *)
    let seen = Hashtbl.create 8 in
    let ops =
      List.filter
        (fun (k, _) ->
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        raw
    in
    return (Multi ops))

let transfer_gen =
  QCheck2.Gen.(
    let* src = int_range 0 (n_keys - 1) in
    let* dst =
      map (fun d -> (src + 1 + d) mod n_keys) (int_range 0 (n_keys - 2))
    in
    let* amount = int_range 1 200 in
    return (Transfer { src; dst; amount }))

let spec_gen = QCheck2.Gen.(oneof [ multi_gen; multi_gen; transfer_gen ])

let prop_serializable =
  QCheck2.Test.make ~name:"ALOHA-DB ≡ serial execution in ts order" ~count:15
    QCheck2.Gen.(list_size (int_range 5 40) spec_gen)
    check_case

(* A deterministic, high-contention instance kept as a regression test:
   many guarded transfers hammering two keys. *)
let test_contended_transfers () =
  let specs =
    List.init 30 (fun i ->
        Transfer { src = i mod 2; dst = (i + 1) mod 2; amount = 60 })
  in
  ignore (check_case specs)

(* Deletes racing numeric updates across epochs. *)
let test_delete_vs_add () =
  let specs =
    [ Multi [ (0, SDelete) ];
      Multi [ (0, SAdd 5) ];
      Multi [ (0, SPut 7) ];
      Multi [ (0, SSubtr 2) ] ]
  in
  ignore (check_case specs)

let suite =
  [ QCheck_alcotest.to_alcotest prop_serializable;
    Alcotest.test_case "contended transfers" `Quick test_contended_transfers;
    Alcotest.test_case "delete vs add" `Quick test_delete_vs_add ]
