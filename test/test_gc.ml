(* Version garbage collection: history below the horizon is reclaimed
   while reads at and above it are unaffected. *)

module Chain = Mvstore.Chain
module Value = Functor_cc.Value
module Engine = Functor_cc.Compute_engine
module Funct = Functor_cc.Funct

let versions_of c =
  List.rev (Chain.fold c ~init:[] ~f:(fun acc v _ -> v :: acc))

let test_chain_truncate () =
  let c : int Chain.t = Chain.create () in
  List.iter (fun v -> ignore (Chain.insert c ~version:v v)) [ 1; 3; 5; 7; 9 ];
  let reclaimed = Chain.truncate_below c ~version:6 in
  Alcotest.(check int) "two dropped" 2 reclaimed;
  Alcotest.(check (list int)) "base kept" [ 5; 7; 9 ] (versions_of c);
  (* Reads at the horizon land on the kept base. *)
  (match Chain.find_le c ~version:6 with
  | Some (5, _) -> ()
  | _ -> Alcotest.fail "base lost");
  Alcotest.(check int) "idempotent" 0 (Chain.truncate_below c ~version:6)

let test_chain_truncate_all_below () =
  let c : int Chain.t = Chain.create () in
  List.iter (fun v -> ignore (Chain.insert c ~version:v v)) [ 10; 20 ];
  Alcotest.(check int) "nothing below first" 0
    (Chain.truncate_below c ~version:5);
  Alcotest.(check int) "everything below keeps latest" 1
    (Chain.truncate_below c ~version:100);
  Alcotest.(check (list int)) "latest survives" [ 20 ] (versions_of c)

(* Truncation must release what it drops.  Dropping 7 of 10 versions
   leaves slots 3..9 vacated; version 5 sat in slot 4, past the kept
   suffix that the blit overwrites, so only clearing the vacated tail
   lets the collector reclaim its payload. *)
let fill_chain c ~watch =
  for v = 1 to 10 do
    let payload = Bytes.make 16 'x' in
    if v = 5 then Weak.set watch 0 (Some payload);
    ignore (Chain.insert c ~version:v payload)
  done
[@@inline never]

let test_chain_truncate_releases () =
  let c : bytes Chain.t = Chain.create () in
  let watch = Weak.create 1 in
  fill_chain c ~watch;
  Alcotest.(check int) "seven dropped" 7 (Chain.truncate_below c ~version:8);
  Gc.full_major ();
  Alcotest.(check bool) "truncated payload collected" false
    (Weak.check watch 0);
  Alcotest.(check (list int)) "suffix kept" [ 8; 9; 10 ] (versions_of c)

(* The event agenda must release what it fires.  Every event's closure
   captures its own watched block; once the agenda has run dry, no slot
   of the heap's array (sized by its high-water mark) may still pin a
   fired closure. *)
let schedule_watched des ~watch =
  for i = 0 to Weak.length watch - 1 do
    let block = Bytes.make 16 'e' in
    Weak.set watch i (Some block);
    Sim.Engine.schedule des ~at:(i mod 5) (fun () ->
        ignore (Sys.opaque_identity block))
  done
[@@inline never]

let test_agenda_releases_fired () =
  let des = Sim.Engine.create () in
  let watch = Weak.create 100 in
  schedule_watched des ~watch;
  Sim.Engine.run des;
  Gc.full_major ();
  let pinned = ref 0 in
  for i = 0 to Weak.length watch - 1 do
    if Weak.check watch i then incr pinned
  done;
  Alcotest.(check int) "fired closures collected" 0 !pinned;
  Alcotest.(check int) "every event fired" 100 (Sim.Engine.events_fired des)

let mk_engine () =
  let callbacks =
    { Engine.is_local = (fun _ -> true);
      remote_get = (fun ~key:_ ~version:_ k -> k None);
      send_push = (fun ~dst_key:_ ~version:_ ~src_key:_ _ -> ());
      send_dep_write = (fun ~key:_ ~version:_ _ -> ());
      notify_final = (fun ~key:_ ~version:_ ~pending:_ ~final:_ -> ());
      exec = (fun ~cost:_ k -> k ());
      now = (fun () -> 0) }
  in
  Engine.create
    ~registry:(Functor_cc.Registry.with_builtins ())
    ~callbacks ~compute_cost_us:0 ~metrics:(Sim.Metrics.create ()) ()

let test_engine_gc_preserves_reads () =
  let e = mk_engine () in
  Engine.load_initial e ~key:(Mvstore.Key.intern "k") (Value.int 0);
  for v = 1 to 50 do
    ignore
      (Engine.install e ~key:(Mvstore.Key.intern "k") ~version:v ~lo:0 ~hi:max_int
         (Funct.mk_pending ~ftype:Functor_cc.Ftype.Add
            ~farg:(Funct.farg_args [ Value.int 1 ])
            ~txn_id:v ~coordinator:0))
  done;
  Engine.compute_key e ~key:(Mvstore.Key.intern "k") ~version:50;
  let read version =
    let got = ref 0 in
    Engine.get e ~key:(Mvstore.Key.intern "k") ~version (function
      | Some v -> got := Value.to_int v
      | None -> got := -1);
    !got
  in
  Alcotest.(check int) "pre-gc latest" 50 (read max_int);
  let reclaimed = Engine.gc e ~before:30 in
  Alcotest.(check int) "records reclaimed" 30 reclaimed;
  Alcotest.(check int) "latest unchanged" 50 (read max_int);
  Alcotest.(check int) "read at horizon" 30 (read 30);
  Alcotest.(check int) "read above horizon" 42 (read 42);
  (* Reads strictly below the horizon are no longer served — the
     documented historical-read horizon. *)
  Alcotest.(check int) "below horizon unsupported" (-1) (read 10)

let test_engine_gc_spares_pending () =
  let e = mk_engine () in
  Engine.load_initial e ~key:(Mvstore.Key.intern "k") (Value.int 0);
  for v = 1 to 10 do
    ignore
      (Engine.install e ~key:(Mvstore.Key.intern "k") ~version:v ~lo:0 ~hi:max_int
         (Funct.mk_pending ~ftype:Functor_cc.Ftype.Add
            ~farg:(Funct.farg_args [ Value.int 1 ])
            ~txn_id:v ~coordinator:0))
  done;
  (* Nothing computed yet: the watermark is still 0, so gc must not touch
     anything above it. *)
  let reclaimed = Engine.gc e ~before:100 in
  Alcotest.(check int) "nothing reclaimed above watermark" 0 reclaimed;
  Engine.compute_key e ~key:(Mvstore.Key.intern "k") ~version:10;
  let got = ref 0 in
  Engine.get e ~key:(Mvstore.Key.intern "k") ~version:max_int (function
    | Some v -> got := Value.to_int v
    | None -> ());
  Alcotest.(check int) "values intact after gc attempt" 10 !got

(* An aborted record is no base: reads skip it.  v1 ADD 5 is computed,
   v2 ADD 7 aborted in-epoch, v3 ADD 1 still pending, so the watermark
   is 2.  Collecting below 2 must keep v1, the value reads at 2 and v3's
   computation land on, and may drop only v0. *)
let test_engine_gc_skips_aborted_base () =
  let e = mk_engine () in
  let key = Mvstore.Key.intern "gc-aborted" in
  Engine.load_initial e ~key (Value.int 0);
  List.iter
    (fun (v, x) ->
      ignore
        (Engine.install e ~key ~version:v ~lo:0 ~hi:max_int
           (Funct.mk_pending ~ftype:Functor_cc.Ftype.Add
              ~farg:(Funct.farg_args [ Value.int x ])
              ~txn_id:v ~coordinator:0)))
    [ (1, 5); (2, 7); (3, 1) ];
  Engine.compute_key e ~key ~version:1;
  Engine.abort_version e ~key ~version:2;
  Alcotest.(check int) "watermark" 2 (Engine.watermark e ~key);
  Alcotest.(check int) "only v0 reclaimed" 1 (Engine.gc e ~before:2);
  let read version =
    let got = ref (-1) in
    Engine.get e ~key ~version (function
      | Some v -> got := Value.to_int v
      | None -> ());
    !got
  in
  Alcotest.(check int) "read at the horizon skips the aborted v2" 5 (read 2);
  Alcotest.(check int) "v3 computed over v1" 6 (read 3)

(* The planner's dispatch run must release each plan node as the node's
   job fires, as one closure per job would: four ADDs on four keys, one
   worker, 10 us per job.  After two jobs, the first two nodes' pending
   records are garbage; the last node's is still held by its queued job.
   A run that kept the plan's [nodes] array until its last job would pin
   all four. *)
let plan_watched e ~watch =
  List.init 4 (fun i ->
      let key = Mvstore.Key.intern (Printf.sprintf "gc-plan-%d" i) in
      Engine.load_initial e ~key (Value.int 0);
      let record =
        Funct.mk_pending ~ftype:Functor_cc.Ftype.Add
          ~farg:(Funct.farg_args [ Value.int 1 ])
          ~txn_id:1 ~coordinator:0
      in
      (match record.Funct.state with
      | Funct.Pending p -> Weak.set watch i (Some p)
      | Funct.Final _ -> Alcotest.fail "ADD installed final");
      (match Engine.install e ~key ~version:1 ~lo:0 ~hi:max_int record with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "install failed");
      { Functor_cc.Processor.key; version = 1 })
[@@inline never]

let run_plan sim e ~items =
  let pool = Sim.Worker_pool.create sim ~workers:1 in
  let planner =
    Functor_cc.Planner.create ~engine:e ~pool ~dispatch_cost_us:10
      ~metrics:(Sim.Metrics.create ()) ()
  in
  ignore (Functor_cc.Planner.run planner ~items)
[@@inline never]

let test_dispatch_run_releases_nodes () =
  let sim = Sim.Engine.create () in
  let e = mk_engine () in
  let watch = Weak.create 4 in
  run_plan sim e ~items:(plan_watched e ~watch);
  Sim.Engine.run ~until:25 sim;
  Gc.full_major ();
  Alcotest.(check (list bool)) "fired nodes collected, queued ones held"
    [ false; false; true; true ]
    (List.init 4 (Weak.check watch));
  Sim.Engine.run sim;
  Gc.full_major ();
  Alcotest.(check (list bool)) "every node collected"
    [ false; false; false; false ]
    (List.init 4 (Weak.check watch))

let suite =
  [ Alcotest.test_case "chain truncate" `Quick test_chain_truncate;
    Alcotest.test_case "chain truncate edges" `Quick
      test_chain_truncate_all_below;
    Alcotest.test_case "chain truncate releases payloads" `Quick
      test_chain_truncate_releases;
    Alcotest.test_case "agenda releases fired events" `Quick
      test_agenda_releases_fired;
    Alcotest.test_case "dispatch run releases fired nodes" `Quick
      test_dispatch_run_releases_nodes;
    Alcotest.test_case "engine gc preserves reads" `Quick
      test_engine_gc_preserves_reads;
    Alcotest.test_case "engine gc spares pending" `Quick
      test_engine_gc_spares_pending;
    Alcotest.test_case "engine gc skips an aborted base" `Quick
      test_engine_gc_skips_aborted_base ]
