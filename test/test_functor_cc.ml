(* The functor compute engine in isolation (single partition, synchronous
   callbacks), plus Value / Ftype / Registry units. *)

module Value = Functor_cc.Value
module Ftype = Functor_cc.Ftype
module Funct = Functor_cc.Funct
module Registry = Functor_cc.Registry
module Engine = Functor_cc.Compute_engine

let ik = Mvstore.Key.intern

(* ---- Value -------------------------------------------------------------- *)

let test_value_accessors () =
  Alcotest.(check int) "int" 5 (Value.to_int (Value.int 5));
  Alcotest.(check string) "str" "x" (Value.to_str (Value.str "x"));
  let t = Value.tup [ Value.int 1; Value.str "a" ] in
  Alcotest.(check int) "nth" 1 (Value.to_int (Value.nth t 0));
  Alcotest.(check string) "nth str" "a" (Value.to_str (Value.nth t 1));
  Alcotest.check_raises "type error" (Invalid_argument "Value: expected int, got str")
    (fun () -> ignore (Value.to_int (Value.str "no")))

let test_value_equal_compare () =
  let a = Value.tup [ Value.int 1; Value.tup [ Value.str "x" ] ] in
  let b = Value.tup [ Value.int 1; Value.tup [ Value.str "x" ] ] in
  Alcotest.(check bool) "structural equal" true (Value.equal a b);
  Alcotest.(check bool) "unequal" false
    (Value.equal a (Value.tup [ Value.int 2 ]))

(* Every bad index raises the accessor's own message, negative ones
   included, and a non-tuple raises the type error. *)
let test_value_nth_bad_index () =
  let t = Value.tup [ Value.int 1; Value.str "a" ] in
  Alcotest.(check string) "last field" "a" (Value.to_str (Value.nth t 1));
  List.iter
    (fun i ->
      Alcotest.check_raises
        (Printf.sprintf "index %d" i)
        (Invalid_argument (Printf.sprintf "Value.nth: index %d" i))
        (fun () -> ignore (Value.nth t i)))
    [ -1; min_int; 2; 3; max_int ];
  Alcotest.check_raises "empty tuple" (Invalid_argument "Value.nth: index 0")
    (fun () -> ignore (Value.nth (Value.tup []) 0));
  Alcotest.check_raises "not a tuple"
    (Invalid_argument "Value: expected tup, got int") (fun () ->
      ignore (Value.nth (Value.int 3) 0))

(* A small int is one shared box; equality and printing cannot tell it
   from a fresh [Int], on either side of the shared range and for
   negative ints. *)
let prop_shared_ints_invisible =
  QCheck2.Test.make ~name:"shared small ints are invisible" ~count:500
    QCheck2.Gen.(
      let near = oneof [ int_range (-3) 3; int_range 1020 1028 ] in
      pair (oneof [ near; int_range (-2000) 2000; int ])
        (oneof [ near; int_range (-2000) 2000; int ]))
    (fun (a, b) ->
      let sa = Value.int a and sb = Value.int b in
      let fa = Value.Int a and fb = Value.Int b in
      let box x y = Value.tup [ x; Value.str "k"; y ] in
      Value.equal sa fa
      && Value.equal sa fb = Value.equal fa fb
      && Value.equal (box sa sb) (box fa fb)
      && Value.equal (box sa sb) (box fb fa)
         = Value.equal (box fa fb) (box fb fa)
      && String.equal (Value.to_string sa) (Value.to_string fa)
      && String.equal
           (Value.to_string (box sa sb))
           (Value.to_string (box fa fb))
      && Value.to_int sa = a)

let test_shared_ints_shared () =
  Alcotest.(check bool) "0 shared" true (Value.int 0 == Value.int 0);
  Alcotest.(check bool) "1023 shared" true (Value.int 1023 == Value.int 1023)

(* ---- Ftype -------------------------------------------------------------- *)

let test_ftype () =
  Alcotest.(check bool) "VALUE final" true (Ftype.is_final Ftype.Value);
  Alcotest.(check bool) "ADD not final" false (Ftype.is_final Ftype.Add);
  Alcotest.(check int) "table I rows" 6 (List.length Ftype.table_i)

(* ---- Registry ----------------------------------------------------------- *)

let test_registry_duplicate () =
  let r = Registry.with_builtins () in
  Registry.register r "h" (fun _ -> Registry.Abort);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Registry.register: duplicate handler \"h\"") (fun () ->
      Registry.register r "h" (fun _ -> Registry.Abort));
  Alcotest.(check bool) "registered" true (Registry.find r "h" <> None)

let test_registry_arg_bad_index () =
  let ctx =
    { Registry.key = "k"; version = 1; reads = [];
      args = [ Value.int 7; Value.str "x" ] }
  in
  Alcotest.(check string) "last arg" "x" (Value.to_str (Registry.arg ctx 1));
  List.iter
    (fun i ->
      Alcotest.check_raises
        (Printf.sprintf "index %d" i)
        (Invalid_argument (Printf.sprintf "Registry.arg: index %d" i))
        (fun () -> ignore (Registry.arg ctx i)))
    [ -1; min_int; 2; max_int ];
  Alcotest.check_raises "no args" (Invalid_argument "Registry.arg: index 0")
    (fun () -> ignore (Registry.arg { ctx with Registry.args = [] } 0))

(* ---- engine harness ------------------------------------------------------ *)

type harness = {
  engine : Engine.t;
  pushes : (string * int * string) list ref;
  dep_writes : (string * int * Funct.final) list ref;
  finals : (string * int) list ref;
  computes : int ref;  (* handler executions, via exec *)
}

let mk_engine ?(registry = Registry.with_builtins ()) ?remote_get () =
  let pushes = ref [] and dep_writes = ref [] and finals = ref [] in
  let computes = ref 0 in
  let engine_ref = ref None in
  let callbacks =
    { Engine.is_local = (fun _ -> true);
      remote_get =
        (match remote_get with
        | Some f -> f
        | None -> fun ~key:_ ~version:_ k -> k None);
      send_push =
        (fun ~dst_key ~version ~src_key _ ->
          pushes :=
            (Mvstore.Key.name dst_key, version, Mvstore.Key.name src_key)
            :: !pushes;
          match !engine_ref with
          | Some e ->
              Engine.deliver_push e ~key:dst_key ~version ~src_key None
          | None -> ());
      send_dep_write =
        (fun ~key ~version final ->
          dep_writes := (Mvstore.Key.name key, version, final) :: !dep_writes;
          match !engine_ref with
          | Some e -> Engine.deliver_dep_write e ~key ~version ~final
          | None -> ());
      notify_final =
        (fun ~key ~version ~pending:_ ~final:_ ->
          finals := (Mvstore.Key.name key, version) :: !finals);
      exec =
        (fun ~cost:_ k ->
          incr computes;
          k ());
      now = (fun () -> 0) }
  in
  let e =
    Engine.create ~registry ~callbacks ~compute_cost_us:1
      ~metrics:(Sim.Metrics.create ()) ()
  in
  engine_ref := Some e;
  { engine = e; pushes; dep_writes; finals; computes }

(* The helpers below speak client-side string keys and intern at entry,
   keeping the test bodies readable. *)

let install_pending h ~key ~version ~ftype ~farg =
  match
    Engine.install h.engine ~key:(ik key) ~version ~lo:0 ~hi:max_int
      (Funct.mk_pending ~ftype ~farg ~txn_id:version ~coordinator:0)
  with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install failed"

let install_value h ~key ~version v =
  match
    Engine.install h.engine ~key:(ik key) ~version ~lo:0 ~hi:max_int
      (Funct.mk_value v)
  with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install failed"

let get_int h ~key ~version =
  let result = ref None in
  Engine.get h.engine ~key:(ik key) ~version (fun v -> result := Some v);
  match !result with
  | Some (Some v) -> Some (Value.to_int v)
  | Some None -> None
  | None -> Alcotest.fail "get did not complete synchronously"

let load_initial h ~key v = Engine.load_initial h.engine ~key:(ik key) v

let compute_key h ~key ~version =
  Engine.compute_key h.engine ~key:(ik key) ~version

let abort_version h ~key ~version =
  Engine.abort_version h.engine ~key:(ik key) ~version

let watermark h ~key = Engine.watermark h.engine ~key:(ik key)

(* ---- engine behaviour ---------------------------------------------------- *)

let test_builtin_add_chain () =
  let h = mk_engine () in
  load_initial h ~key:"k" (Value.int 10);
  install_pending h ~key:"k" ~version:5 ~ftype:Ftype.Add
    ~farg:(Funct.farg_args [ Value.int 3 ]);
  install_pending h ~key:"k" ~version:9 ~ftype:Ftype.Subtr
    ~farg:(Funct.farg_args [ Value.int 1 ]);
  (* An on-demand read of version 9 recursively computes version 5. *)
  Alcotest.(check (option int)) "chain computed" (Some 12)
    (get_int h ~key:"k" ~version:9);
  Alcotest.(check (option int)) "intermediate version" (Some 13)
    (get_int h ~key:"k" ~version:5);
  Alcotest.(check (option int)) "initial untouched" (Some 10)
    (get_int h ~key:"k" ~version:4);
  Alcotest.(check int) "watermark caught up" 9
    (watermark h ~key:"k")

let test_max_min () =
  let h = mk_engine () in
  load_initial h ~key:"k" (Value.int 10);
  install_pending h ~key:"k" ~version:1 ~ftype:Ftype.Max
    ~farg:(Funct.farg_args [ Value.int 50 ]);
  install_pending h ~key:"k" ~version:2 ~ftype:Ftype.Min
    ~farg:(Funct.farg_args [ Value.int 20 ]);
  Alcotest.(check (option int)) "max then min" (Some 20)
    (get_int h ~key:"k" ~version:10)

let test_add_absent_key_aborts () =
  (* Built-ins are total: absent keys count as 0, so a lone ADD commits
     (aborting here would break sibling-functor atomicity, §IV-C). *)
  let h = mk_engine () in
  install_pending h ~key:"ghost" ~version:3 ~ftype:Ftype.Add
    ~farg:(Funct.farg_args [ Value.int 1 ]);
  Alcotest.(check (option int)) "absent counts as zero" (Some 1)
    (get_int h ~key:"ghost" ~version:10)

let test_aborted_version_skipped () =
  let h = mk_engine () in
  load_initial h ~key:"k" (Value.int 1);
  install_value h ~key:"k" ~version:5 (Value.int 2);
  (match
     Engine.install h.engine ~key:(ik "k") ~version:7 ~lo:0 ~hi:max_int
       (Funct.mk_final Funct.Aborted_v)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install");
  Alcotest.(check (option int)) "read skips aborted" (Some 2)
    (get_int h ~key:"k" ~version:8)

let test_delete_tombstone () =
  let h = mk_engine () in
  load_initial h ~key:"k" (Value.int 1);
  (match
     Engine.install h.engine ~key:(ik "k") ~version:4 ~lo:0 ~hi:max_int
       (Funct.mk_final Funct.Deleted_v)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install");
  Alcotest.(check (option int)) "deleted reads as absent" None
    (get_int h ~key:"k" ~version:6);
  Alcotest.(check (option int)) "older version visible" (Some 1)
    (get_int h ~key:"k" ~version:3)

let test_compute_at_most_once () =
  let h = mk_engine () in
  load_initial h ~key:"k" (Value.int 0);
  install_pending h ~key:"k" ~version:2 ~ftype:Ftype.Add
    ~farg:(Funct.farg_args [ Value.int 1 ]);
  ignore (get_int h ~key:"k" ~version:5);
  let after_first = !(h.computes) in
  ignore (get_int h ~key:"k" ~version:5);
  compute_key h ~key:"k" ~version:2;
  Alcotest.(check int) "no recomputation" after_first !(h.computes)

let test_user_handler_reads () =
  let registry = Registry.with_builtins () in
  Registry.register registry "sum2" (fun ctx ->
      let a = Value.to_int (Option.get (Registry.read ctx "a")) in
      let b = Value.to_int (Option.get (Registry.read ctx "b")) in
      Registry.Commit (Value.int (a + b)));
  let h = mk_engine ~registry () in
  load_initial h ~key:"a" (Value.int 7);
  load_initial h ~key:"b" (Value.int 5);
  load_initial h ~key:"c" (Value.int 0);
  install_pending h ~key:"c" ~version:3 ~ftype:(Ftype.User "sum2")
    ~farg:{ Funct.read_set = [ ik "a"; ik "b" ]; args = []; recipients = [];
            dependents = []; pushed_reads = [] };
  Alcotest.(check (option int)) "sum of reads" (Some 12)
    (get_int h ~key:"c" ~version:4)

let test_handler_reads_snapshot_below_version () =
  (* A functor at version v must read the latest version < v, not the
     globally latest. *)
  let registry = Registry.with_builtins () in
  Registry.register registry "copy_a" (fun ctx ->
      match Registry.read ctx "a" with
      | Some v -> Registry.Commit v
      | None -> Registry.Abort);
  let h = mk_engine ~registry () in
  load_initial h ~key:"a" (Value.int 1);
  load_initial h ~key:"b" (Value.int 0);
  install_value h ~key:"a" ~version:10 (Value.int 2);
  install_pending h ~key:"b" ~version:5 ~ftype:(Ftype.User "copy_a")
    ~farg:{ Funct.read_set = [ ik "a" ]; args = []; recipients = [];
            dependents = []; pushed_reads = [] };
  Alcotest.(check (option int)) "reads version < 5, not version 10" (Some 1)
    (get_int h ~key:"b" ~version:5)

let test_missing_handler_aborts () =
  let h = mk_engine () in
  load_initial h ~key:"k" (Value.int 9);
  install_pending h ~key:"k" ~version:2 ~ftype:(Ftype.User "nope")
    ~farg:Funct.farg_empty;
  Alcotest.(check (option int)) "missing handler aborts version" (Some 9)
    (get_int h ~key:"k" ~version:5)

let test_dep_marker_resolution () =
  let registry = Registry.with_builtins () in
  Registry.register registry "det" (fun ctx ->
      let own = Value.to_int (Option.get (Registry.read ctx ctx.Registry.key)) in
      Registry.Commit_det
        ( Value.int (own + 1),
          [ ("dep", Registry.Dep_put (Value.int 99)) ] ));
  let h = mk_engine ~registry () in
  load_initial h ~key:"det_key" (Value.int 0);
  load_initial h ~key:"dep" (Value.int 1);
  install_pending h ~key:"det_key" ~version:4 ~ftype:(Ftype.User "det")
    ~farg:{ Funct.read_set = [ ik "det_key" ]; args = []; recipients = [];
            dependents = [ ik "dep" ]; pushed_reads = [] };
  install_pending h ~key:"dep" ~version:4 ~ftype:(Ftype.Dep_marker (ik "det_key"))
    ~farg:Funct.farg_empty;
  (* Reading the dependent key triggers the determinate functor. *)
  Alcotest.(check (option int)) "deferred write observed" (Some 99)
    (get_int h ~key:"dep" ~version:4);
  Alcotest.(check (option int)) "determinate value" (Some 1)
    (get_int h ~key:"det_key" ~version:4)

let test_dynamic_dep_write () =
  let registry = Registry.with_builtins () in
  Registry.register registry "emit" (fun _ ->
      Registry.Commit_det
        (Value.int 0, [ ("dyn:7", Registry.Dep_put (Value.int 42)) ]));
  let h = mk_engine ~registry () in
  load_initial h ~key:"k" (Value.int 0);
  install_pending h ~key:"k" ~version:3 ~ftype:(Ftype.User "emit")
    ~farg:{ Funct.read_set = []; args = []; recipients = []; dependents = []; pushed_reads = [] };
  compute_key h ~key:"k" ~version:3;
  Alcotest.(check (option int)) "dynamically named row inserted" (Some 42)
    (get_int h ~key:"dyn:7" ~version:3);
  Alcotest.(check (option int)) "absent below its version" None
    (get_int h ~key:"dyn:7" ~version:2)

let test_abort_version_rolls_back_final () =
  let h = mk_engine () in
  load_initial h ~key:"k" (Value.int 1);
  install_value h ~key:"k" ~version:5 (Value.int 2);
  abort_version h ~key:"k" ~version:5;
  Alcotest.(check (option int)) "rolled back" (Some 1)
    (get_int h ~key:"k" ~version:9)

let test_abort_version_pending () =
  let h = mk_engine () in
  load_initial h ~key:"k" (Value.int 1);
  install_pending h ~key:"k" ~version:5 ~ftype:Ftype.Add
    ~farg:(Funct.farg_args [ Value.int 10 ]);
  abort_version h ~key:"k" ~version:5;
  Alcotest.(check (option int)) "pending aborted, not applied" (Some 1)
    (get_int h ~key:"k" ~version:9);
  (* notify fired exactly once for the aborted functor *)
  Alcotest.(check int) "one final notification" 1 (List.length !(h.finals))

(* Final states for small ints, ABORTED and DELETED are shared blocks.
   Sharing must not show: records stay distinct, aborting one version
   leaves another with the same value alone, and equality, reads and the
   value watermark treat shared and fresh states alike, for ints on both
   sides of the shared range. *)
let test_shared_final_states_invisible () =
  let h = mk_engine () in
  List.iter (fun key -> load_initial h ~key (Value.int 0)) [ "a"; "b" ];
  List.iter
    (fun key ->
      install_pending h ~key ~version:5 ~ftype:Ftype.Add
        ~farg:(Funct.farg_args [ Value.int 7 ]);
      compute_key h ~key ~version:5)
    [ "a"; "b" ];
  let record key =
    match Mvstore.Table.chain (Engine.table h.engine) (ik key) with
    | Some c -> Option.get (Mvstore.Chain.find_exact c ~version:5)
    | None -> Alcotest.fail "no chain"
  in
  let ra = record "a" and rb = record "b" in
  Alcotest.(check bool) "distinct records" false (ra == rb);
  Alcotest.(check bool) "one shared state" true
    (ra.Funct.state == rb.Funct.state);
  abort_version h ~key:"a" ~version:5;
  Alcotest.(check (option int)) "aborted rolls back" (Some 0)
    (get_int h ~key:"a" ~version:9);
  Alcotest.(check (option int)) "sibling untouched" (Some 7)
    (get_int h ~key:"b" ~version:9);
  Alcotest.(check bool) "sibling state" true
    (rb.Funct.state = Funct.Final (Funct.Committed (Value.Int 7)));
  let ints = [ 0; 3; 1023; 1024; 5000; -1 ] in
  let fresh f = { Funct.state = Funct.Final f } in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "state %d" i)
        true
        ((fresh (Funct.Committed (Value.Int i))).state
        = (Funct.mk_value (Value.int i)).state))
    ints;
  List.iter
    (fun f ->
      Alcotest.(check bool) "ABORTED/DELETED state" true
        ((fresh f).state = (Funct.mk_final f).state))
    [ Funct.Aborted_v; Funct.Deleted_v ];
  (* The same versions, stored once through the shared path and once as
     fresh boxes: equal reads and equal value watermarks. *)
  let stored mk vint =
    let h = mk_engine () in
    let finals =
      (ik "snap:del", Funct.Deleted_v)
      :: List.map
           (fun i ->
             (ik (Printf.sprintf "snap:%d" i), Funct.Committed (vint i)))
           ints
    in
    List.iteri
      (fun v (key, f) ->
        match
          Engine.install h.engine ~key ~version:(v + 1) ~lo:0 ~hi:max_int
            (mk f)
        with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "install failed")
      finals;
    h
  in
  let reads h =
    get_int h ~key:"snap:del" ~version:max_int
    :: List.map
         (fun i -> get_int h ~key:(Printf.sprintf "snap:%d" i) ~version:max_int)
         ints
  in
  let shared_h = stored Funct.mk_final Value.int in
  let fresh_h = stored fresh (fun i -> Value.Int i) in
  Alcotest.(check (list (option int))) "reads" (reads fresh_h) (reads shared_h);
  Alcotest.(check (list (option int))) "read values"
    (None :: List.map Option.some ints)
    (reads shared_h);
  Alcotest.(check int) "value watermarks"
    (Alohadb.Recovery.max_final_version fresh_h.engine)
    (Alohadb.Recovery.max_final_version shared_h.engine)

(* The recovery watermark probe's value: the highest version holding a
   committed or deleted final, over keys with committed, deleted,
   aborted-only and still-pending versions. *)
let test_max_final_version () =
  let h = mk_engine () in
  let max_final () = Alohadb.Recovery.max_final_version h.engine in
  Alcotest.(check int) "empty engine" 0 (max_final ());
  install_value h ~key:"committed" ~version:4 (Value.int 1);
  install_value h ~key:"committed" ~version:6 (Value.int 2);
  (match
     Engine.install h.engine ~key:(ik "deleted") ~version:8 ~lo:0 ~hi:max_int
       (Funct.mk_final Funct.Deleted_v)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install failed");
  install_value h ~key:"aborted" ~version:20 (Value.int 3);
  abort_version h ~key:"aborted" ~version:20;
  install_value h ~key:"committed" ~version:15 (Value.int 4);
  abort_version h ~key:"committed" ~version:15;
  install_pending h ~key:"pending" ~version:30 ~ftype:Ftype.Add
    ~farg:{ Funct.read_set = []; args = [ Value.int 1 ]; recipients = [];
            dependents = []; pushed_reads = [] };
  Alcotest.(check int) "latest committed or deleted final" 8 (max_final ());
  compute_key h ~key:"pending" ~version:30;
  Alcotest.(check int) "computed pending version" 30 (max_final ())

let test_recipient_push_emitted () =
  let registry = Registry.with_builtins () in
  Registry.register registry "recv" (fun ctx ->
      match Registry.read ctx "src" with
      | Some v -> Registry.Commit v
      | None -> Registry.Commit (Value.int (-1)));
  let h = mk_engine ~registry () in
  load_initial h ~key:"src" (Value.int 5);
  load_initial h ~key:"dst" (Value.int 0);
  install_pending h ~key:"src" ~version:3 ~ftype:Ftype.Add
    ~farg:{ Funct.read_set = []; args = [ Value.int 1 ];
            recipients = [ ik "dst" ]; dependents = []; pushed_reads = [] };
  install_pending h ~key:"dst" ~version:3 ~ftype:(Ftype.User "recv")
    ~farg:{ Funct.read_set = [ ik "src" ]; args = []; recipients = [];
            dependents = []; pushed_reads = [] };
  compute_key h ~key:"src" ~version:3;
  Alcotest.(check bool) "push was sent" true (!(h.pushes) <> []);
  (match !(h.pushes) with
  | (dst, 3, "src") :: _ -> Alcotest.(check string) "to dst functor" "dst" dst
  | _ -> Alcotest.fail "unexpected push shape")

(* A validating functor, as the optimistic client writes it: the
   validation handler over the snapshot's keys, with the encoded snapshot
   and the new value as arguments. *)
let test_optimistic_validation () =
  let registry = Registry.with_builtins () in
  Functor_cc.Optimistic.register registry;
  let h = mk_engine ~registry () in
  load_initial h ~key:"k" (Value.int 10);
  let validate ~version ~observed ~new_value =
    install_pending h ~key:"k" ~version
      ~ftype:(Ftype.User Functor_cc.Optimistic.handler_name)
      ~farg:
        { Funct.read_set = [ ik "k" ];
          args =
            [ Functor_cc.Optimistic.encode_snapshot [ ("k", Some observed) ];
              new_value ];
          recipients = []; dependents = []; pushed_reads = [] }
  in
  (* Valid snapshot: commits. *)
  validate ~version:5 ~observed:(Value.int 10) ~new_value:(Value.int 11);
  Alcotest.(check (option int)) "validates and commits" (Some 11)
    (get_int h ~key:"k" ~version:6);
  (* Stale snapshot (now 11): aborts. *)
  validate ~version:9 ~observed:(Value.int 10) ~new_value:(Value.int 12);
  Alcotest.(check (option int)) "stale snapshot aborts" (Some 11)
    (get_int h ~key:"k" ~version:10)

(* qcheck: a random series of ADD/SUBTR/VALUE writes equals a fold. *)
let prop_numeric_series =
  let op_gen =
    QCheck2.Gen.(oneof
      [ map (fun n -> `Add n) (int_range 1 100);
        map (fun n -> `Subtr n) (int_range 1 100);
        map (fun n -> `Put n) (int_range 0 1000) ])
  in
  QCheck2.Test.make ~name:"numeric functor series = fold" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) op_gen)
    (fun ops ->
      let h = mk_engine () in
      load_initial h ~key:"k" (Value.int 0);
      List.iteri
        (fun i op ->
          let version = i + 1 in
          match op with
          | `Add n ->
              install_pending h ~key:"k" ~version ~ftype:Ftype.Add
                ~farg:(Funct.farg_args [ Value.int n ])
          | `Subtr n ->
              install_pending h ~key:"k" ~version ~ftype:Ftype.Subtr
                ~farg:(Funct.farg_args [ Value.int n ])
          | `Put n -> install_value h ~key:"k" ~version (Value.int n))
        ops;
      let expected =
        List.fold_left
          (fun acc op ->
            match op with
            | `Add n -> acc + n
            | `Subtr n -> acc - n
            | `Put n -> n)
          0 ops
      in
      get_int h ~key:"k" ~version:max_int = Some expected)

(* qcheck: watermark equals the highest version after computing all. *)
let prop_watermark_complete =
  QCheck2.Test.make ~name:"watermark reaches top after compute" ~count:100
    QCheck2.Gen.(list_size (int_range 1 30) (int_range 1 100))
    (fun raw ->
      let versions = List.sort_uniq compare raw in
      let h = mk_engine () in
      load_initial h ~key:"k" (Value.int 0);
      List.iter
        (fun version ->
          install_pending h ~key:"k" ~version ~ftype:Ftype.Add
            ~farg:(Funct.farg_args [ Value.int 1 ]))
        versions;
      let top = List.fold_left max 0 versions in
      compute_key h ~key:"k" ~version:top;
      watermark h ~key:"k" = top
      && Engine.pending_count h.engine = 0)

(* qcheck (planner): random single-epoch plans through the per-epoch
   dependency-graph planner, evaluated over a real worker pool so all
   dispatch jobs run before any evaluation finalises.  Checks: the
   finalisation order respects both intra-key and read→write edges, and
   every pending functor evaluates exactly once. *)
let prop_planner_epoch =
  let n_keys = 6 in
  let op_gen =
    QCheck2.Gen.(
      pair
        (int_range 0 (n_keys - 1))
        (oneof
           [ map (fun d -> `Add d) (int_range 1 9);
             map (fun rks -> `Sum rks)
               (list_size (int_range 1 3) (int_range 0 (n_keys - 1))) ]))
  in
  let print (ops, seed) =
    Printf.sprintf "seed=%d ops=[%s]" seed
      (String.concat "; "
         (List.map
            (fun (k, op) ->
              match op with
              | `Add d -> Printf.sprintf "p%d+=%d" k d
              | `Sum rks ->
                  Printf.sprintf "p%d=sum(%s)" k
                    (String.concat "," (List.map string_of_int rks)))
            ops))
  in
  QCheck2.Test.make ~name:"planner: edge order + exactly-once" ~count:100
    ~print
    QCheck2.Gen.(pair (list_size (int_range 1 40) op_gen) (int_bound 10_000))
    (fun (ops, shuffle_seed) ->
      let sim = Sim.Engine.create () in
      let pool = Sim.Worker_pool.create sim ~workers:3 in
      let registry = Registry.with_builtins () in
      Registry.register registry "sum" (fun ctx ->
          let total =
            List.fold_left
              (fun acc (_, v) ->
                acc + match v with Some v -> Value.to_int v | None -> 0)
              0 ctx.Registry.reads
          in
          Registry.Commit (Value.int total));
      let order = ref [] in
      let engine_ref = ref None in
      let callbacks =
        { Engine.is_local = (fun _ -> true);
          remote_get = (fun ~key:_ ~version:_ k -> k None);
          send_push =
            (fun ~dst_key ~version ~src_key v ->
              match !engine_ref with
              | Some e -> Engine.deliver_push e ~key:dst_key ~version ~src_key v
              | None -> ());
          send_dep_write = (fun ~key:_ ~version:_ _ -> ());
          notify_final =
            (fun ~key ~version ~pending:_ ~final:_ ->
              order := (Mvstore.Key.name key, version) :: !order);
          exec = (fun ~cost k -> Sim.Worker_pool.submit pool ~cost k);
          now = (fun () -> Sim.Engine.now sim) }
      in
      let e =
        Engine.create ~registry ~callbacks ~compute_cost_us:1
          ~metrics:(Sim.Metrics.create ()) ()
      in
      engine_ref := Some e;
      for i = 0 to n_keys - 1 do
        Engine.load_initial e ~key:(ik (Printf.sprintf "p%d" i)) (Value.int 0)
      done;
      (* Epoch items: globally unique versions in op order, then a
         deterministic shuffle so plans also see out-of-version-order
         installs (a key's writer segment out of version order). *)
      let indexed = Array.of_list (List.mapi (fun i op -> (i + 1, op)) ops) in
      let st = ref ((2 * shuffle_seed) + 1) in
      let rand n =
        st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
        !st mod n
      in
      for i = Array.length indexed - 1 downto 1 do
        let j = rand (i + 1) in
        let tmp = indexed.(i) in
        indexed.(i) <- indexed.(j);
        indexed.(j) <- tmp
      done;
      let items =
        Array.to_list
          (Array.map
             (fun (version, (ki, op)) ->
               let key = ik (Printf.sprintf "p%d" ki) in
               let funct =
                 match op with
                 | `Add d ->
                     Funct.mk_pending ~ftype:Ftype.Add
                       ~farg:(Funct.farg_args [ Value.int d ])
                       ~txn_id:version ~coordinator:0
                 | `Sum rks ->
                     let read_set =
                       List.sort_uniq compare
                         (List.map (fun r -> ik (Printf.sprintf "p%d" r)) rks)
                     in
                     Funct.mk_pending ~ftype:(Ftype.User "sum")
                       ~farg:{ Funct.farg_empty with read_set }
                       ~txn_id:version ~coordinator:0
               in
               (match
                  Engine.install e ~key ~version ~lo:0 ~hi:max_int funct
                with
               | Ok () -> ()
               | Error _ -> Alcotest.fail "install failed");
               { Functor_cc.Processor.key; version })
             indexed)
      in
      let planner =
        Functor_cc.Planner.create ~engine:e ~pool ~dispatch_cost_us:1
          ~metrics:(Sim.Metrics.create ()) ()
      in
      let stats = Functor_cc.Planner.run planner ~items in
      Sim.Engine.run sim;
      let n_ops = List.length ops in
      let final_order = List.rev !order in
      (* exactly-once: every item finalised, none twice, nothing pending *)
      let distinct = List.sort_uniq compare final_order in
      let pos =
        let h = Hashtbl.create 64 in
        List.iteri (fun i kv -> Hashtbl.replace h kv i) final_order;
        h
      in
      let pos_of kv = Hashtbl.find pos kv in
      (* every dependency edge implied by the epoch is respected in the
         finalisation order *)
      let producer key_name ~below =
        Array.fold_left
          (fun best (version, (ki, _)) ->
            if
              version <= below
              && String.equal (Printf.sprintf "p%d" ki) key_name
              && (match best with Some b -> version > b | None -> true)
            then Some version
            else best)
          None indexed
      in
      (* Execution-order edges the engine actually enforces: built-ins
         implicitly read their own key at version - 1 (intra-key edge);
         user functors finalise after the producers of their read-set
         keys, but not after lower versions of their own key (the
         watermark, not the record, waits for those). *)
      let edges_ok =
        Array.for_all
          (fun (version, (ki, op)) ->
            let kname = Printf.sprintf "p%d" ki in
            let after_producer rk_name =
              match producer rk_name ~below:(version - 1) with
              | None -> true
              | Some pv -> pos_of (rk_name, pv) < pos_of (kname, version)
            in
            match op with
            | `Add _ -> after_producer kname
            | `Sum rks ->
                List.for_all
                  (fun r -> after_producer (Printf.sprintf "p%d" r))
                  rks)
          indexed
      in
      stats.Functor_cc.Planner.nodes = n_ops
      && List.length final_order = n_ops
      && List.length distinct = n_ops
      && Engine.pending_count e = 0
      && edges_ok)

(* The list-based Kahn stratification the planner used before its
   array-based level pass, kept here as the reference for the plan
   statistics: the number of peeling rounds over [succs]/[indeg]. *)
let kahn_strata ~n ~succs ~indeg =
  let indeg = Array.copy indeg in
  let frontier = ref [] in
  for i = n - 1 downto 0 do
    if indeg.(i) = 0 then frontier := i :: !frontier
  done;
  let levels = ref 0 and consumed = ref 0 in
  while !frontier <> [] do
    incr levels;
    let next = ref [] in
    List.iter
      (fun i ->
        incr consumed;
        List.iter
          (fun j ->
            indeg.(j) <- indeg.(j) - 1;
            if indeg.(j) = 0 then next := j :: !next)
          succs.(i))
      !frontier;
    frontier := !next
  done;
  assert (!consumed = n);
  !levels

(* qcheck (planner levels): random epochs of ADD chains and "sum" user
   functors whose read sets span keys, own key included.  The plan
   statistics must equal the reference Kahn stratification's over the
   same edges (under the real runtime, less the read edges of the ADDs
   the bind pass folds, which are final before the first batch), and
   evaluating the plan on the real runtime at 1, 2 and 4
   domains — one batch per level, one task per key run — must leave the
   same final state as the simulated runtime, equal to serial replay in
   version order, with no item sent back to the sequential fallback. *)
let prop_planner_levels =
  let n_keys = 5 in
  let op_gen =
    QCheck2.Gen.(
      pair
        (int_range 0 (n_keys - 1))
        (oneof
           [ map (fun d -> `Add d) (int_range 1 9);
             map2
               (fun own rks -> `Sum (own, rks))
               bool
               (list_size (int_range 0 3) (int_range 0 (n_keys - 1))) ]))
  in
  let print ops =
    String.concat "; "
      (List.map
         (fun (k, op) ->
           match op with
           | `Add d -> Printf.sprintf "p%d+=%d" k d
           | `Sum (own, rks) ->
               Printf.sprintf "p%d=sum(%s%s)" k
                 (if own then "own," else "")
                 (String.concat "," (List.map string_of_int rks)))
         ops)
  in
  QCheck2.Test.make ~name:"planner: levels keep Kahn stats, real = sim"
    ~count:60 ~print
    QCheck2.Gen.(list_size (int_range 1 40) op_gen)
    (fun ops ->
      let ops = Array.of_list ops in
      let n = Array.length ops in
      (* op i writes key [fst ops.(i)] at version i + 1 *)
      let reads i =
        match snd ops.(i) with
        | `Add _ -> []
        | `Sum (own, rks) ->
            List.sort_uniq compare
              (if own then fst ops.(i) :: rks else rks)
      in
      let name k = Printf.sprintf "lv%d" k in
      let run_epoch real =
        let sim = Sim.Engine.create () in
        let pool = Sim.Worker_pool.create sim ~workers:3 in
        let registry = Registry.with_builtins () in
        Registry.register registry "sum" (fun ctx ->
            Registry.Commit
              (Value.int
                 (List.fold_left
                    (fun acc (_, v) ->
                      acc + match v with Some v -> Value.to_int v | None -> 0)
                    0 ctx.Registry.reads)));
        let finals = Hashtbl.create 64 in
        let callbacks =
          { Engine.is_local = (fun _ -> true);
            remote_get = (fun ~key:_ ~version:_ k -> k None);
            send_push = (fun ~dst_key:_ ~version:_ ~src_key:_ _ -> ());
            send_dep_write = (fun ~key:_ ~version:_ _ -> ());
            notify_final =
              (fun ~key ~version ~pending:_ ~final ->
                Hashtbl.replace finals (Mvstore.Key.name key, version) final);
            exec = (fun ~cost k -> Sim.Worker_pool.submit pool ~cost k);
            now = (fun () -> Sim.Engine.now sim) }
        in
        let metrics = Sim.Metrics.create () in
        let e =
          Engine.create ~registry ~callbacks ~compute_cost_us:1 ~metrics ()
        in
        for k = 0 to n_keys - 1 do
          Engine.load_initial e ~key:(ik (name k)) (Value.int 0)
        done;
        let items =
          List.init n (fun i ->
              let key = ik (name (fst ops.(i))) and version = i + 1 in
              let funct =
                match snd ops.(i) with
                | `Add d ->
                    Funct.mk_pending ~ftype:Ftype.Add
                      ~farg:(Funct.farg_args [ Value.int d ])
                      ~txn_id:version ~coordinator:0
                | `Sum _ ->
                    Funct.mk_pending ~ftype:(Ftype.User "sum")
                      ~farg:
                        { Funct.farg_empty with
                          read_set = List.map (fun r -> ik (name r)) (reads i) }
                      ~txn_id:version ~coordinator:0
              in
              (match Engine.install e ~key ~version ~lo:0 ~hi:max_int funct with
              | Ok () -> ()
              | Error _ -> Alcotest.fail "install failed");
              { Functor_cc.Processor.key; version })
        in
        let rpool = Option.map (fun domains -> Runtime.Pool.create ~domains) real in
        let planner =
          Functor_cc.Planner.create ~engine:e ~pool ?real:rpool
            ~dispatch_cost_us:1 ~metrics ()
        in
        let stats = Functor_cc.Planner.run planner ~items in
        Sim.Engine.run sim;
        Option.iter Runtime.Pool.shutdown rpool;
        let state =
          List.sort compare (Hashtbl.fold (fun kv f acc -> (kv, f) :: acc) finals [])
        in
        (stats, state, Sim.Metrics.get metrics "plan.real_evaluated",
         Sim.Metrics.get metrics "plan.real_fallback")
      in
      (* reference graph: intra-key edge from the key's next-lower plan
         version, read→write edge from each read key's largest plan
         version <= v - 1.  Under the real runtime the bind pass folds
         each key's ADDs up to its first sum; a read of one takes no
         edge. *)
      let producer k ~bound =
        let best = ref (-1) in
        Array.iteri
          (fun j (kj, _) -> if kj = k && j + 1 <= bound then best := j)
          ops;
        !best
      in
      let folded j =
        let rec adds_upto i =
          i < 0
          || ((fst ops.(i) <> fst ops.(j)
              || match snd ops.(i) with `Add _ -> true | `Sum _ -> false)
             && adds_upto (i - 1))
        in
        adds_upto j
      in
      let reference ~real =
        let succs = Array.make n [] and indeg = Array.make n 0 in
        let edges = ref 0 in
        let edge src dst =
          if src >= 0 then begin
            succs.(src) <- dst :: succs.(src);
            indeg.(dst) <- indeg.(dst) + 1;
            incr edges
          end
        in
        Array.iteri
          (fun i (k, _) ->
            edge (producer k ~bound:i) i;
            List.iter
              (fun r ->
                let j = producer r ~bound:i in
                if not (real && j >= 0 && folded j) then edge j i)
              (reads i))
          ops;
        (!edges, kahn_strata ~n ~succs ~indeg)
      in
      (* serial replay in version order *)
      let cur = Array.make n_keys 0 in
      let serial =
        List.sort compare
          (List.init n (fun i ->
               let k = fst ops.(i) in
               (cur.(k) <-
                 (match snd ops.(i) with
                 | `Add d -> cur.(k) + d
                 | `Sum _ -> List.fold_left (fun acc r -> acc + cur.(r)) 0 (reads i)));
               ((name k, i + 1), Funct.Committed (Value.int cur.(k)))))
      in
      let stats_ok ~real (s : Functor_cc.Planner.stats) =
        let edges, strata = reference ~real in
        s.nodes = n && s.edges = edges && s.strata = strata
      in
      let sim_stats, sim_state, _, _ = run_epoch None in
      stats_ok ~real:false sim_stats && sim_state = serial
      && List.for_all
           (fun domains ->
             let stats, state, evaluated, fallback = run_epoch (Some domains) in
             stats_ok ~real:true stats && state = sim_state && evaluated = n
             && fallback = 0)
           [ 1; 2; 4 ])

(* qcheck (planner, mixed plans): the shapes [prop_planner_levels] never
   builds.  Versions are installed and listed in two independent random
   orders, so a key's nodes reach the plan out of version order; blind
   [Put]s are final at install; and some records — pending or blind — are
   rolled back with [abort_version] before the plan, so already-final
   records sit between pending versions of a key.  Only the still-pending
   records are plan nodes.  The plan statistics must equal the reference
   Kahn stratification's over the node graph, every node's real-runtime
   level must equal a list-based longest-path reference, and the final
   state must equal serial replay under the simulated runtime and under
   the real one at 1, 2 and 4 domains. *)
let prop_planner_mixed =
  let n_keys = 4 in
  let op_gen =
    QCheck2.Gen.(
      triple
        (int_range 0 (n_keys - 1))
        (frequency
           [ (3, map (fun d -> `Add d) (int_range 1 9));
             (2,
              map2
                (fun own rks -> `Sum (own, rks))
                bool
                (list_size (int_range 0 3) (int_range 0 (n_keys - 1))));
             (1, map (fun v -> `Put v) (int_range 0 99)) ])
        (map (fun x -> x = 0) (int_bound 4)))
  in
  let print (ops, (s1, s2)) =
    Printf.sprintf "install_seed=%d list_seed=%d ops=[%s]" s1 s2
      (String.concat "; "
         (List.map
            (fun (k, op, aborted) ->
              (match op with
              | `Add d -> Printf.sprintf "p%d+=%d" k d
              | `Put v -> Printf.sprintf "p%d:=%d" k v
              | `Sum (own, rks) ->
                  Printf.sprintf "p%d=sum(%s%s)" k
                    (if own then "own," else "")
                    (String.concat "," (List.map string_of_int rks)))
              ^ if aborted then "!" else "")
            ops))
  in
  let shuffle seed a =
    let a = Array.copy a in
    let st = ref ((2 * seed) + 1) in
    for i = Array.length a - 1 downto 1 do
      st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
      let j = !st mod (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    a
  in
  QCheck2.Test.make
    ~name:"planner: unsorted, blind and aborted items keep the plan"
    ~count:60 ~print
    QCheck2.Gen.(
      pair (list_size (int_range 1 40) op_gen)
        (pair (int_bound 10_000) (int_bound 10_000)))
    (fun (ops, (install_seed, list_seed)) ->
      let ops = Array.of_list ops in
      let n = Array.length ops in
      let key i = let k, _, _ = ops.(i) in k in
      let aborted i = let _, _, a = ops.(i) in a in
      (* op i writes key [key i] at version i + 1 *)
      let reads i =
        match ops.(i) with
        | _, (`Add _ | `Put _), _ -> []
        | k, `Sum (own, rks), _ ->
            List.sort_uniq compare (if own then k :: rks else rks)
      in
      let is_node i =
        (not (aborted i))
        && match ops.(i) with _, `Put _, _ -> false | _ -> true
      in
      let name k = Printf.sprintf "mx%d" k in
      let run_epoch real =
        let sim = Sim.Engine.create () in
        let pool = Sim.Worker_pool.create sim ~workers:3 in
        let registry = Registry.with_builtins () in
        Registry.register registry "sum" (fun ctx ->
            Registry.Commit
              (Value.int
                 (List.fold_left
                    (fun acc (_, v) ->
                      acc + match v with Some v -> Value.to_int v | None -> 0)
                    0 ctx.Registry.reads)));
        let finals = Hashtbl.create 64 in
        (* The level batch in progress, -1 before the first; a node's
           level is the batch whose commit finalised it, and a node the
           bind pass folded, committed before the first batch, is at
           level 0. *)
        let batch = ref (-1) in
        let levels = Hashtbl.create 64 and early = Hashtbl.create 64 in
        let callbacks =
          { Engine.is_local = (fun _ -> true);
            remote_get = (fun ~key:_ ~version:_ k -> k None);
            send_push = (fun ~dst_key:_ ~version:_ ~src_key:_ _ -> ());
            send_dep_write = (fun ~key:_ ~version:_ _ -> ());
            notify_final =
              (fun ~key ~version ~pending:_ ~final ->
                Hashtbl.replace finals (Mvstore.Key.name key, version) final;
                Hashtbl.replace levels (Mvstore.Key.name key, version)
                  (max 0 !batch);
                if !batch < 0 then
                  Hashtbl.replace early (Mvstore.Key.name key, version) ());
            exec = (fun ~cost k -> Sim.Worker_pool.submit pool ~cost k);
            now = (fun () -> Sim.Engine.now sim) }
        in
        let metrics = Sim.Metrics.create () in
        let e =
          Engine.create ~registry ~callbacks ~compute_cost_us:1 ~metrics ()
        in
        for k = 0 to n_keys - 1 do
          Engine.load_initial e ~key:(ik (name k)) (Value.int 0)
        done;
        Array.iter
          (fun i ->
            let version = i + 1 in
            let record =
              match ops.(i) with
              | _, `Add d, _ ->
                  Funct.mk_pending ~ftype:Ftype.Add
                    ~farg:(Funct.farg_args [ Value.int d ])
                    ~txn_id:version ~coordinator:0
              | _, `Put v, _ -> Funct.mk_value (Value.int v)
              | _, `Sum _, _ ->
                  Funct.mk_pending ~ftype:(Ftype.User "sum")
                    ~farg:
                      { Funct.farg_empty with
                        read_set = List.map (fun r -> ik (name r)) (reads i) }
                    ~txn_id:version ~coordinator:0
            in
            match
              Engine.install e ~key:(ik (name (key i))) ~version ~lo:0
                ~hi:max_int record
            with
            | Ok () -> ()
            | Error _ -> Alcotest.fail "install failed")
          (shuffle install_seed (Array.init n Fun.id));
        for i = 0 to n - 1 do
          if aborted i then
            Engine.abort_version e ~key:(ik (name (key i))) ~version:(i + 1)
        done;
        let items =
          Array.to_list
            (Array.map
               (fun i ->
                 { Functor_cc.Processor.key = ik (name (key i));
                   version = i + 1 })
               (shuffle list_seed (Array.init n Fun.id)))
        in
        let rpool = Option.map (fun domains -> Runtime.Pool.create ~domains) real in
        let planner =
          Functor_cc.Planner.create ~engine:e ~pool ?real:rpool
            ~dispatch_cost_us:1 ~metrics
            ~on_stratum:(fun ~size:_ -> incr batch)
            ()
        in
        let stats = Functor_cc.Planner.run planner ~items in
        Sim.Engine.run sim;
        Option.iter Runtime.Pool.shutdown rpool;
        let sorted h = List.sort compare (Hashtbl.fold (fun kv x acc -> (kv, x) :: acc) h []) in
        let visible =
          List.init n (fun i ->
              let r = ref None in
              Engine.get e ~key:(ik (name (key i))) ~version:(i + 1) (fun v ->
                  r := Some v);
              match !r with
              | Some (Some v) -> Value.to_int v
              | Some None -> -1
              | None -> Alcotest.fail "get did not complete")
        in
        let node_levels =
          List.filter (fun ((k, v), _) -> is_node (v - 1) && String.equal k (name (key (v - 1))))
            (sorted levels)
        in
        (* A node final before the first batch was folded by the bind
           pass (under the simulated runtime nothing is). *)
        let folded i =
          Option.is_some real && Hashtbl.mem early (name (key i), i + 1)
        in
        (stats, sorted finals, visible, node_levels, folded,
         Sim.Metrics.get metrics "plan.real_evaluated",
         Sim.Metrics.get metrics "plan.real_fallback",
         Engine.pending_count e)
      in
      (* Reference graph over the nodes, in version order: an intra-key
         edge from the key's next-lower node, a read→write edge from each
         read key's largest node version <= v - 1, unless the bind pass
         folded that node ([folded]: final before the first batch, as a
         version below the plan is).  Levels: the longest path with
         intra-key edges weighing 0 and read edges 1. *)
      let producer k ~bound =
        let best = ref (-1) in
        for j = 0 to bound - 1 do
          if is_node j && key j = k then best := j
        done;
        !best
      in
      let node_ids = List.filter is_node (List.init n Fun.id) in
      let m = List.length node_ids in
      let reference folded =
        let succs = Array.make n [] and indeg = Array.make n 0 in
        let level = Array.make n 0 in
        let edges = ref 0 in
        let edge ~w src dst =
          if src >= 0 then begin
            succs.(src) <- dst :: succs.(src);
            indeg.(dst) <- indeg.(dst) + 1;
            level.(dst) <- max level.(dst) (level.(src) + w);
            incr edges
          end
        in
        for i = 0 to n - 1 do
          if is_node i then begin
            edge ~w:0 (producer (key i) ~bound:i) i;
            List.iter
              (fun r ->
                let j = producer r ~bound:i in
                if not (j >= 0 && folded j) then edge ~w:1 j i)
              (reads i)
          end
        done;
        (* [kahn_strata] over the nodes alone: renumber them densely. *)
        let dense = Array.make n (-1) in
        List.iteri (fun d i -> dense.(i) <- d) node_ids;
        let d_succs = Array.make m [] and d_indeg = Array.make m 0 in
        List.iter
          (fun i ->
            d_succs.(dense.(i)) <- List.map (fun j -> dense.(j)) succs.(i);
            d_indeg.(dense.(i)) <- indeg.(i))
          node_ids;
        let strata =
          if m = 0 then 0 else kahn_strata ~n:m ~succs:d_succs ~indeg:d_indeg
        in
        let levels =
          List.map (fun i -> ((name (key i), i + 1), level.(i))) node_ids
          |> List.sort compare
        in
        (!edges, strata, levels)
      in
      (* serial replay in version order; a rolled-back version writes
         nothing, so a read at it sees the key's value below *)
      let cur = Array.make n_keys 0 in
      let serial =
        List.init n (fun i ->
            let k = key i in
            let reads = List.map (fun r -> cur.(r)) (reads i) in
            if not (aborted i) then
              cur.(k) <-
                (match ops.(i) with
                | _, `Add d, _ -> cur.(k) + d
                | _, `Put v, _ -> v
                | _, `Sum _, _ -> List.fold_left ( + ) 0 reads);
            cur.(k))
      in
      let stats_ok (s : Functor_cc.Planner.stats) (edges, strata, _) =
        s.nodes = m && s.edges = edges && s.strata = strata
      in
      let sim_stats, sim_finals, sim_visible, _, sim_folded, _, _, sim_pending =
        run_epoch None
      in
      stats_ok sim_stats (reference sim_folded)
      && sim_visible = serial && sim_pending = 0
      && List.for_all
           (fun domains ->
             let stats, finals, visible, levels, folded, evaluated, fallback,
                 pending =
               run_epoch (Some domains)
             in
             let ((_, _, ref_levels) as r) = reference folded in
             stats_ok stats r && finals = sim_finals && visible = serial
             && levels = ref_levels && evaluated = m && fallback = 0
             && pending = 0)
           [ 1; 2; 4 ])

let suite =
  [ Alcotest.test_case "value accessors" `Quick test_value_accessors;
    Alcotest.test_case "value equal/compare" `Quick test_value_equal_compare;
    Alcotest.test_case "ftype" `Quick test_ftype;
    Alcotest.test_case "value nth bad index" `Quick test_value_nth_bad_index;
    QCheck_alcotest.to_alcotest prop_shared_ints_invisible;
    Alcotest.test_case "small ints shared" `Quick test_shared_ints_shared;
    Alcotest.test_case "registry duplicate" `Quick test_registry_duplicate;
    Alcotest.test_case "registry arg bad index" `Quick
      test_registry_arg_bad_index;
    Alcotest.test_case "builtin add chain" `Quick test_builtin_add_chain;
    Alcotest.test_case "max/min" `Quick test_max_min;
    Alcotest.test_case "add on absent defaults to zero" `Quick
      test_add_absent_key_aborts;
    Alcotest.test_case "aborted version skipped" `Quick
      test_aborted_version_skipped;
    Alcotest.test_case "delete tombstone" `Quick test_delete_tombstone;
    Alcotest.test_case "compute at most once" `Quick test_compute_at_most_once;
    Alcotest.test_case "user handler reads" `Quick test_user_handler_reads;
    Alcotest.test_case "reads strictly below version" `Quick
      test_handler_reads_snapshot_below_version;
    Alcotest.test_case "missing handler aborts" `Quick
      test_missing_handler_aborts;
    Alcotest.test_case "dep marker resolution" `Quick
      test_dep_marker_resolution;
    Alcotest.test_case "dynamic dep write" `Quick test_dynamic_dep_write;
    Alcotest.test_case "abort rolls back final" `Quick
      test_abort_version_rolls_back_final;
    Alcotest.test_case "abort pending" `Quick test_abort_version_pending;
    Alcotest.test_case "shared final states invisible" `Quick
      test_shared_final_states_invisible;
    Alcotest.test_case "max final version" `Quick test_max_final_version;
    Alcotest.test_case "recipient push" `Quick test_recipient_push_emitted;
    Alcotest.test_case "optimistic validation" `Quick
      test_optimistic_validation;
    QCheck_alcotest.to_alcotest prop_numeric_series;
    QCheck_alcotest.to_alcotest prop_watermark_complete;
    QCheck_alcotest.to_alcotest prop_planner_epoch;
    QCheck_alcotest.to_alcotest prop_planner_levels;
    QCheck_alcotest.to_alcotest prop_planner_mixed ]
