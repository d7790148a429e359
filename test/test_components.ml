(* Focused unit tests for smaller components: the per-epoch functor
   buffer and the FE's functor transforms. *)

module Value = Functor_cc.Value
module Funct = Functor_cc.Funct
module Ftype = Functor_cc.Ftype
module Txn = Alohadb.Txn
module Message = Alohadb.Message

let ik = Mvstore.Key.intern
let names = List.map Mvstore.Key.name

(* ---- processor ------------------------------------------------------- *)

let test_processor_drain_by_epoch () =
  let proc = Functor_cc.Processor.create () in
  let buffer epoch key version =
    Functor_cc.Processor.buffer proc ~epoch ~key:(ik key) ~version
  in
  (* Epochs buffered out of order, items interleaved across keys. *)
  buffer 2 "b" 7;
  buffer 1 "a" 3;
  buffer 3 "c" 9;
  buffer 1 "b" 1;
  buffer 2 "a" 5;
  buffer 1 "a" 2;
  Alcotest.(check int) "all buffered" 6 (Functor_cc.Processor.buffered proc);
  let drained upto_epoch =
    List.concat_map
      (fun (epoch, items) ->
        List.map
          (fun { Functor_cc.Processor.key; version } ->
            (epoch, Mvstore.Key.name key, version))
          items)
      (Functor_cc.Processor.drain proc ~upto_epoch)
  in
  let items = Alcotest.(list (triple int string int)) in
  (* Epochs <= 2 in ascending order, install order within each. *)
  Alcotest.check items "epochs 1 and 2"
    [ (1, "a", 3); (1, "b", 1); (1, "a", 2); (2, "b", 7); (2, "a", 5) ]
    (drained 2);
  Alcotest.(check int) "epoch 3 stays buffered" 1
    (Functor_cc.Processor.buffered proc);
  Alcotest.check items "nothing left up to 2" [] (drained 2);
  Alcotest.check items "epoch 3" [ (3, "c", 9) ] (drained 3);
  Alcotest.(check int) "empty" 0 (Functor_cc.Processor.buffered proc)

(* ---- transaction -> functor transforms -------------------------------- *)

let test_fspec_of_op_shapes () =
  let spec =
    Message.fspec_of_op ~key:(ik "k") ~recipients:[ ik "r" ] (Txn.Add 5)
  in
  Alcotest.(check bool) "ADD ftype" true
    (match spec.Message.ftype with Ftype.Add -> true | _ -> false);
  Alcotest.(check (list string)) "recipients carried" [ "r" ]
    (names spec.Message.farg.Funct.recipients);
  let call =
    Message.fspec_of_op ~key:(ik "k") ~recipients:[] ~pushed_reads:[ ik "a" ]
      (Txn.Call { handler = "h"; read_set = [ "a"; "b" ]; args = [] })
  in
  Alcotest.(check (list string)) "read set" [ "a"; "b" ]
    (names call.Message.farg.Funct.read_set);
  Alcotest.(check (list string)) "pushed reads" [ "a" ]
    (names call.Message.farg.Funct.pushed_reads);
  let det =
    Message.fspec_of_op ~key:(ik "k") ~recipients:[]
      (Txn.Det
         { handler = "h"; read_set = [ "k" ]; args = []; dependents = [ "d" ] })
  in
  Alcotest.(check (list string)) "dependents" [ "d" ]
    (names det.Message.farg.Funct.dependents)

let test_functor_of_fspec_final_forms () =
  let v = Message.functor_of_fspec (Message.fspec_value (Value.int 9))
      ~txn_id:1 ~coordinator:0
  in
  (match v.Funct.state with
  | Funct.Final (Funct.Committed x) ->
      Alcotest.(check int) "value payload" 9 (Value.to_int x)
  | _ -> Alcotest.fail "VALUE should be final");
  let d =
    Message.functor_of_fspec
      (Message.fspec_of_op ~key:(ik "k") ~recipients:[] Txn.Delete)
      ~txn_id:1 ~coordinator:0
  in
  (match d.Funct.state with
  | Funct.Final Funct.Deleted_v -> ()
  | _ -> Alcotest.fail "DELETE should be a tombstone");
  let marker =
    Message.functor_of_fspec (Message.fspec_dep_marker ~det_key:(ik "a"))
      ~txn_id:1 ~coordinator:0
  in
  match marker.Funct.state with
  | Funct.Pending p ->
      Alcotest.(check bool) "marker carries det key" true
        (match p.Funct.ftype with
        | Ftype.Dep_marker k -> Mvstore.Key.equal k (ik "a")
        | _ -> false)
  | Funct.Final _ -> Alcotest.fail "marker must be pending"

let suite =
  [ Alcotest.test_case "processor epoch buffering" `Quick
      test_processor_drain_by_epoch;
    Alcotest.test_case "fspec shapes" `Quick test_fspec_of_op_shapes;
    Alcotest.test_case "fspec final forms" `Quick
      test_functor_of_fspec_final_forms ]
