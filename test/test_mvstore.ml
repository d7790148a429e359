(* Multi-version storage: chains and tables. *)

module Chain = Mvstore.Chain
module Table = Mvstore.Table

let ik = Mvstore.Key.intern

let versions_of c =
  List.rev (Chain.fold c ~init:[] ~f:(fun acc v _ -> v :: acc))

let test_chain_insert_find () =
  let c : string Chain.t = Chain.create () in
  List.iter
    (fun (v, s) ->
      match Chain.insert c ~version:v s with
      | Ok () -> ()
      | Error `Duplicate -> Alcotest.fail "unexpected duplicate")
    [ (10, "a"); (30, "c"); (20, "b") ];
  Alcotest.(check (list int)) "sorted" [ 10; 20; 30 ] (versions_of c);
  (match Chain.find_le c ~version:25 with
  | Some (20, "b") -> ()
  | Some (v, s) -> Alcotest.failf "got (%d,%s)" v s
  | None -> Alcotest.fail "missing");
  Alcotest.(check (option string)) "below first" None
    (Option.map snd (Chain.find_le c ~version:9));
  (match Chain.find_le c ~version:30 with
  | Some (30, "c") -> ()
  | _ -> Alcotest.fail "exact bound");
  (match Chain.find_le c ~version:1000 with
  | Some (30, "c") -> ()
  | _ -> Alcotest.fail "above all")

let test_chain_duplicate () =
  let c : int Chain.t = Chain.create () in
  (match Chain.insert c ~version:5 1 with Ok () -> () | Error _ -> assert false);
  (match Chain.insert c ~version:5 2 with
  | Error `Duplicate -> ()
  | Ok () -> Alcotest.fail "duplicate accepted");
  Alcotest.(check (option int)) "original kept" (Some 1)
    (Chain.find_exact c ~version:5)

(* Payloads are [true] when final: the watermark walks the final run
   above it, stops at a pending entry, and an entry inserted below it
   never moves it back. *)
let test_chain_watermark_monotone () =
  let c : bool Chain.t = Chain.create () in
  Alcotest.(check int) "initial" (-1) (Chain.watermark c);
  List.iter
    (fun (v, final) -> ignore (Chain.insert c ~version:v final))
    [ (5, true); (10, true); (15, false) ];
  Chain.advance_watermark_while c ~f:Fun.id;
  Alcotest.(check int) "over the final run" 10 (Chain.watermark c);
  ignore (Chain.insert c ~version:7 false);
  Chain.advance_watermark_while c ~f:Fun.id;
  Alcotest.(check int) "monotone" 10 (Chain.watermark c)

(* [advance_watermark_over]: payloads are [true] when final, and a
   pending entry becomes final by setting its ref.  [f] counts its calls,
   so a run the caller vouches for is seen not to be walked. *)
let test_chain_watermark_over () =
  let calls = ref 0 in
  let f final =
    incr calls;
    !final
  in
  (* The watermark starts at the first entry, which is final. *)
  let chain entries =
    let c : bool ref Chain.t = Chain.create () in
    List.iteri
      (fun i (v, final) ->
        ignore (Chain.insert c ~version:v (ref final));
        if i = 0 then Chain.advance_watermark_while c ~f)
      entries;
    c
  in
  let finalize c ~version = Option.get (Chain.find_exact c ~version) := true in
  (* A final run over a final base: the watermark reaches the run's top
     and stops at the pending entry above it, one check in all. *)
  let c = chain [ (0, true); (1, true); (2, true); (3, true); (4, false) ] in
  calls := 0;
  Chain.advance_watermark_over c ~lo:1 ~hi:3 ~f;
  Alcotest.(check int) "over a final run" 3 (Chain.watermark c);
  Alcotest.(check int) "only the entry above the run checked" 1 !calls;
  (* A pending entry between the watermark and the run holds the
     watermark below it; once final, the same call passes it and the run,
     and walks on over the final entry above. *)
  let c = chain [ (0, true); (1, false); (2, true); (3, true); (4, true) ] in
  Chain.advance_watermark_over c ~lo:2 ~hi:3 ~f;
  Alcotest.(check int) "refused below a pending entry" 0 (Chain.watermark c);
  finalize c ~version:1;
  Chain.advance_watermark_over c ~lo:2 ~hi:3 ~f;
  Alcotest.(check int) "past it once final" 4 (Chain.watermark c);
  (* An insert below the watermark's entry shifts it: the next advance
     still starts from the watermark, so a pending entry inserted between
     the watermark and a run still holds it. *)
  let c = chain [ (10, true); (20, true); (30, false); (40, true) ] in
  Chain.advance_watermark_over c ~lo:0 ~hi:1 ~f;
  Alcotest.(check int) "first run" 20 (Chain.watermark c);
  ignore (Chain.insert c ~version:5 (ref true));
  ignore (Chain.insert c ~version:25 (ref false));
  finalize c ~version:30;
  Alcotest.(check int) "watermark entry found after the shift" 2
    (Chain.rank c ~version:(Chain.watermark c));
  Chain.advance_watermark_over c ~lo:4 ~hi:5 ~f;
  Alcotest.(check int) "held by the inserted pending entry" 20
    (Chain.watermark c);
  finalize c ~version:25;
  calls := 0;
  Chain.advance_watermark_over c ~lo:4 ~hi:5 ~f;
  Alcotest.(check int) "then over the run" 40 (Chain.watermark c);
  Alcotest.(check int) "one gap entry checked" 1 !calls;
  Alcotest.check_raises "run outside the chain"
    (Invalid_argument "Chain.advance_watermark_over") (fun () ->
      Chain.advance_watermark_over c ~lo:5 ~hi:6 ~f)

let test_chain_iter_range () =
  let c : int Chain.t = Chain.create () in
  List.iter (fun v -> ignore (Chain.insert c ~version:v v)) [ 1; 3; 5; 7; 9 ];
  let got = ref [] in
  Chain.iter_range c ~lo:3 ~hi:7 (fun v _ -> got := v :: !got);
  Alcotest.(check (list int)) "inclusive range" [ 3; 5; 7 ] (List.rev !got);
  let got = ref [] in
  Chain.iter_range c ~lo:4 ~hi:4 (fun v _ -> got := v :: !got);
  Alcotest.(check (list int)) "empty range" [] !got

let test_key_interning () =
  let a = ik "same" and b = ik "same" and c = ik "other" in
  Alcotest.(check bool) "same name, same key" true (Mvstore.Key.equal a b);
  Alcotest.(check bool) "physical sharing" true (a == b);
  Alcotest.(check bool) "distinct names differ" false (Mvstore.Key.equal a c);
  Alcotest.(check string) "name round-trips" "same" (Mvstore.Key.name a);
  (* memo slots: cached per stamp, recomputed under a new stamp *)
  let s1 = Mvstore.Key.new_stamp () in
  let calls = ref 0 in
  let f _name = incr calls; 7 in
  Alcotest.(check int) "computed" 7 (Mvstore.Key.memo_int a ~stamp:s1 ~f);
  Alcotest.(check int) "cached" 7 (Mvstore.Key.memo_int a ~stamp:s1 ~f);
  Alcotest.(check int) "one evaluation" 1 !calls;
  let s2 = Mvstore.Key.new_stamp () in
  ignore (Mvstore.Key.memo_int a ~stamp:s2 ~f);
  Alcotest.(check int) "new stamp recomputes" 2 !calls

(* Fresh names get consecutive ids, a repeated name its record back, and
   [of_id] finds every record across several doublings of both arrays. *)
let test_intern_dense_of_id () =
  let fresh = Array.init 5_000 (fun i -> ik (Printf.sprintf "dense:%d" i)) in
  let id0 = Mvstore.Key.id fresh.(0) in
  Array.iteri
    (fun i k ->
      if Mvstore.Key.id k <> id0 + i then
        Alcotest.failf "id of name %d: %d, want %d" i (Mvstore.Key.id k)
          (id0 + i))
    fresh;
  Array.iteri
    (fun i k ->
      if ik (Printf.sprintf "dense:%d" i) != k then
        Alcotest.failf "name %d: re-intern returned another record" i;
      if Mvstore.Key.of_id (Mvstore.Key.id k) != k then
        Alcotest.failf "of_id of name %d: another record" i)
    fresh;
  let next = id0 + Array.length fresh in
  Alcotest.check_raises "unassigned id" (Invalid_argument "Key.of_id")
    (fun () -> ignore (Mvstore.Key.of_id next));
  Alcotest.check_raises "negative id" (Invalid_argument "Key.of_id")
    (fun () -> ignore (Mvstore.Key.of_id (-1)))

(* Regression for the intern mutex (--runtime real): 4 domains hammer the
   global intern table with a mix of shared names (every domain must get
   the same record — checked via stable ids) and per-domain fresh names
   (which force concurrent growth of the intern arrays, the race that
   makes a lock-free probe unsafe).  Before the mutex this segfaulted or
   returned duplicate records under parallel load.  Meanwhile the
   orchestrating domain interns its own keys and grows a [Table.t] over
   them. *)
let test_intern_four_domain_hammer () =
  let n_shared = 32 in
  (* More fresh names than are interned so far: both intern arrays
     double at least once during the hammer. *)
  let interned = Mvstore.Key.id (ik "hammer:count") in
  let iters = max 4_000 (interned / 2 + 1) in
  let shared = Array.init n_shared (fun i -> Printf.sprintf "hammer:s:%d" i) in
  let results =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            let ids = Array.make n_shared (-1) in
            let stable = ref true in
            for it = 0 to iters - 1 do
              let i = (it + d) mod n_shared in
              let k = ik shared.(i) in
              let id = Mvstore.Key.id k in
              if ids.(i) = -1 then ids.(i) <- id
              else if ids.(i) <> id then stable := false;
              (* disjoint per-domain inserts keep the table resizing
                 while the other domains look names up *)
              ignore (ik (Printf.sprintf "hammer:p:%d:%d" d it))
            done;
            (ids, !stable)))
  in
  let table : int Table.t = Table.create () in
  let own = Array.init 3_000 (fun i -> ik (Printf.sprintf "hammer:t:%d" i)) in
  Array.iteri
    (fun i k -> ignore (Table.put_unchecked table ~key:k ~version:1 i))
    own;
  let out = Array.map Domain.join results in
  let seen = Array.make (Array.length own) 0 in
  Table.fold_chains table ~init:() ~f:(fun k chain () ->
      match Chain.find_exact chain ~version:1 with
      | Some i when own.(i) == k -> seen.(i) <- seen.(i) + 1
      | _ ->
          Alcotest.failf "table: %s on the wrong chain" (Mvstore.Key.name k));
  Alcotest.(check bool) "table visits each key once" true
    (Array.for_all (( = ) 1) seen);
  Array.iteri
    (fun d (_, stable) ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d saw stable ids" d)
        true stable)
    out;
  let ids0, _ = out.(0) in
  Array.iteri
    (fun d (ids, _) ->
      Alcotest.(check (array int))
        (Printf.sprintf "domain %d agrees with domain 0" d)
        ids0 ids)
    out;
  (* interning is still coherent from the orchestrating domain *)
  Array.iteri
    (fun i name ->
      Alcotest.(check int)
        (Printf.sprintf "shared %d id persists" i)
        ids0.(i)
        (Mvstore.Key.id (ik name)))
    shared

(* qcheck: a random op sequence keeps the flat table agreeing with a
   [Hashtbl] model keyed by id.  Keys are dense (consecutive ids) or
   sparse (every 10th id) and up to a few hundred per case, so the table
   doubles several times from its initial 8 slots. *)
let key_pool = lazy (Array.init 4_000 (fun i -> ik (Printf.sprintf "tq:%d" i)))

let prop_table_matches_model =
  let open QCheck2.Gen in
  let op =
    frequency
      [ (4, map (fun k -> `Chain_of k) (int_range 0 399));
        (4,
         map3
           (fun k v (lo, x) -> `Put (k, v, lo, x))
           (int_range 0 399) (int_range 0 20)
           (pair (int_range 0 20) (int_range 0 999)));
        (2, map (fun k -> `Chain k) (int_range 0 399));
        (2,
         map2 (fun k v -> `Find_le (k, v)) (int_range 0 399) (int_range 0 25));
        (1, pure `Walk) ]
  in
  QCheck2.Test.make ~name:"table = Hashtbl model" ~count:200
    (pair bool (list_size (int_range 1 600) op))
    (fun (sparse, ops) ->
      let pool = Lazy.force key_pool in
      let key i = pool.(if sparse then 10 * i else i) in
      let t : int Table.t = Table.create () in
      let model : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
      let model_chain k =
        Option.map
          (List.sort (fun (a, _) (b, _) -> compare a b))
          (Hashtbl.find_opt model (Mvstore.Key.id k))
      in
      let chain_agrees k c =
        let vs = Chain.fold c ~init:[] ~f:(fun acc v x -> (v, x) :: acc) in
        Some (List.rev vs) = model_chain k
      in
      let walk_agrees () =
        let seen = Hashtbl.create 16 in
        let once = ref true in
        Table.fold_chains t ~init:() ~f:(fun k c () ->
            if Hashtbl.mem seen (Mvstore.Key.id k) then once := false;
            Hashtbl.replace seen (Mvstore.Key.id k) ();
            if not (chain_agrees k c) then once := false);
        !once && Hashtbl.length seen = Hashtbl.length model
      in
      List.for_all
        (function
          | `Chain_of i ->
              let k = key i in
              let c = Table.chain_of t k in
              if not (Hashtbl.mem model (Mvstore.Key.id k)) then
                Hashtbl.add model (Mvstore.Key.id k) [];
              chain_agrees k c
              && (match Table.chain t k with Some c' -> c == c' | None -> false)
          | `Put (i, v, lo, x) -> (
              let k = key i in
              let hi = lo + 5 in
              let id = Mvstore.Key.id k in
              match Table.put t ~key:k ~version:v ~lo ~hi x with
              | Error `Version_out_of_window -> v < lo || v > hi
              | Error `Duplicate_version ->
                  List.mem_assoc v (Option.value ~default:[] (model_chain k))
              | Ok () ->
                  let l =
                    Option.value ~default:[] (Hashtbl.find_opt model id)
                  in
                  Hashtbl.replace model id ((v, x) :: l);
                  (not (List.mem_assoc v l)) && lo <= v && v <= hi)
          | `Chain i -> (
              let k = key i in
              match (Table.chain t k, model_chain k) with
              | None, None -> true
              | Some c, Some _ -> chain_agrees k c
              | _ -> false)
          | `Find_le (i, v) ->
              let k = key i in
              let want =
                Option.bind (model_chain k) (fun l ->
                    List.fold_left
                      (fun acc (v', x) -> if v' <= v then Some (v', x) else acc)
                      None l)
              in
              Table.find_le t ~key:k ~version:v = want
          | `Walk -> walk_agrees ())
        ops
      && walk_agrees ())

let test_table_window () =
  let t : int Table.t = Table.create () in
  let k = ik "k" in
  (match Table.put t ~key:k ~version:50 ~lo:10 ~hi:100 1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "in-window put");
  (match Table.put t ~key:k ~version:5 ~lo:10 ~hi:100 2 with
  | Error `Version_out_of_window -> ()
  | _ -> Alcotest.fail "below window accepted");
  (match Table.put t ~key:k ~version:101 ~lo:10 ~hi:100 3 with
  | Error `Version_out_of_window -> ()
  | _ -> Alcotest.fail "above window accepted");
  (match Table.put t ~key:k ~version:50 ~lo:10 ~hi:100 4 with
  | Error `Duplicate_version -> ()
  | _ -> Alcotest.fail "duplicate accepted")

let test_table_counts () =
  let t : int Table.t = Table.create () in
  ignore (Table.put_unchecked t ~key:(ik "a") ~version:1 1);
  ignore (Table.put_unchecked t ~key:(ik "a") ~version:2 2);
  ignore (Table.put_unchecked t ~key:(ik "b") ~version:1 3);
  Alcotest.(check (option (pair int int))) "find_le" (Some (2, 2))
    (Table.find_le t ~key:(ik "a") ~version:99);
  let keys, records =
    Table.fold_chains t ~init:(0, 0) ~f:(fun _ chain (k, r) ->
        (k + 1, r + Chain.length chain))
  in
  Alcotest.(check int) "fold_chains sees all keys" 2 keys;
  Alcotest.(check int) "fold_chains sees all records" 3 records

(* qcheck: chain behaves like a reference sorted association list. *)
let prop_chain_matches_reference =
  let gen =
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 300))
  in
  QCheck2.Test.make ~name:"chain = reference model" ~count:300 gen
    (fun versions ->
      let c : int Chain.t = Chain.create () in
      let reference = Hashtbl.create 64 in
      List.iter
        (fun v ->
          match Chain.insert c ~version:v v with
          | Ok () ->
              if Hashtbl.mem reference v then raise Exit;
              Hashtbl.add reference v v
          | Error `Duplicate ->
              if not (Hashtbl.mem reference v) then raise Exit)
        versions;
      (* versions sorted & deduplicated *)
      let expected =
        Hashtbl.fold (fun v _ acc -> v :: acc) reference []
        |> List.sort compare
      in
      if versions_of c <> expected then false
      else begin
        (* find_le agrees with the reference for probe points *)
        List.for_all
          (fun probe ->
            let want =
              List.filter (fun v -> v <= probe) expected
              |> List.fold_left (fun acc v -> max acc v) (-1)
            in
            match Chain.find_le c ~version:probe with
            | None -> want = -1
            | Some (v, _) -> v = want)
          [ 0; 50; 150; 299; 1000 ]
      end)

(* qcheck: a random op sequence (insert / truncate_below /
   advance_watermark_over / advance_watermark_while) keeps the chain
   agreeing with a sorted-assoc-list reference on find_le, find_exact and
   versions, and the watermark stays monotone throughout. *)
let prop_chain_ops_match_reference =
  let open QCheck2.Gen in
  let op =
    frequency
      [ (6, map2 (fun v x -> `Insert (v, x)) (int_range 0 300) (int_range 0 999));
        (1, map (fun v -> `Truncate v) (int_range 0 300));
        (2, map2 (fun lo span -> `Advance_over (lo, span)) nat (int_range 0 6));
        (3,
         map3
           (fun d x (lo, span) -> `Insert_below (d, x, lo, span))
           (int_range 1 40) (int_range 0 999)
           (pair (int_range 0 300) (int_range 0 120))) ]
  in
  let gen = list_size (int_range 1 120) op in
  QCheck2.Test.make ~name:"chain ops = reference model" ~count:300 gen
    (fun ops ->
      let c : int Chain.t = Chain.create () in
      (* reference: (version, payload) sorted ascending *)
      let model = ref [] in
      let wm = ref (-1) in
      let ok = ref true in
      let probes = [ 0; 75; 150; 225; 300; 1000 ] in
      let model_find_le probe =
        List.filter (fun (v, _) -> v <= probe) !model
        |> List.fold_left (fun _ (v, x) -> Some (v, x)) None
      in
      let check_agreement () =
        List.iter
          (fun probe ->
            if Chain.find_le c ~version:probe <> model_find_le probe then
              ok := false;
            if
              Chain.find_exact c ~version:probe
              <> Option.map snd
                   (List.find_opt (fun (v, _) -> v = probe) !model)
            then ok := false)
          probes;
        if versions_of c <> List.map fst !model then ok := false;
        (* watermark monotone and equal to the model's *)
        if Chain.watermark c <> !wm then ok := false
      in
      List.iter
        (fun op ->
          (match op with
          | `Insert (v, x) -> (
              match Chain.insert c ~version:v x with
              | Ok () ->
                  if List.mem_assoc v !model then ok := false
                  else
                    model :=
                      List.sort (fun (a, _) (b, _) -> compare a b)
                        ((v, x) :: !model)
              | Error `Duplicate ->
                  if not (List.mem_assoc v !model) then ok := false)
          | `Truncate v ->
              let reclaimed = Chain.truncate_below c ~version:v in
              (* model: keep everything from the latest version <= v on
                 (that record stays as the base for historical reads) *)
              let keep =
                match model_find_le v with
                | Some (base, _) -> fun (v', _) -> v' >= base
                | None -> fun _ -> true
              in
              let before = List.length !model in
              model := List.filter keep !model;
              if reclaimed <> before - List.length !model then ok := false
          | `Advance_over (lo, span) ->
              (* A stretch of walkable entries the caller vouches for;
                 the model walks as advance_watermark_while does. *)
              let walkable x = x mod 4 <> 0 in
              let a = Array.of_list !model in
              let n = Array.length a in
              if n > 0 then begin
                let lo = lo mod n in
                let hi = ref (lo - 1) in
                while !hi + 1 < n && !hi + 1 <= lo + span
                      && walkable (snd a.(!hi + 1)) do
                  incr hi
                done;
                if !hi >= lo then begin
                  Chain.advance_watermark_over c ~lo ~hi:!hi ~f:walkable;
                  let rec walk = function
                    | (v, x) :: rest when walkable x ->
                        wm := v;
                        walk rest
                    | _ -> ()
                  in
                  walk (List.filter (fun (v, _) -> v > !wm) !model)
                end
              end
          | `Insert_below (d, x, lo, span) ->
              (* An out-of-order insert [d] below the latest version,
                 then the watermark walk and both range scans over the
                 shifted arrays. *)
              let latest = List.fold_left (fun _ (v, _) -> v) 0 !model in
              let v = max 0 (latest - d) in
              (match Chain.insert c ~version:v x with
              | Ok () ->
                  if List.mem_assoc v !model then ok := false
                  else
                    model :=
                      List.sort (fun (a, _) (b, _) -> compare a b)
                        ((v, x) :: !model)
              | Error `Duplicate ->
                  if not (List.mem_assoc v !model) then ok := false);
              let walkable x = x mod 4 <> 0 in
              Chain.advance_watermark_while c ~f:walkable;
              (let rec walk = function
                 | (v, x) :: rest when walkable x ->
                     wm := v;
                     walk rest
                 | _ -> ()
               in
               walk (List.filter (fun (v, _) -> v > !wm) !model));
              let hi = lo + span in
              let seen = ref [] in
              Chain.iter_range c ~lo ~hi (fun v x -> seen := (v, x) :: !seen);
              if
                List.rev !seen
                <> List.filter (fun (v, _) -> lo <= v && v <= hi) !model
              then ok := false;
              if Chain.fold c ~init:[] ~f:(fun acc v x -> (v, x) :: acc)
                 <> List.rev !model
              then ok := false);
          check_agreement ())
        ops;
      !ok)

let suite =
  [ Alcotest.test_case "key interning" `Quick test_key_interning;
    Alcotest.test_case "intern dense ids and of_id" `Quick
      test_intern_dense_of_id;
    Alcotest.test_case "intern 4-domain hammer" `Quick
      test_intern_four_domain_hammer;
    Alcotest.test_case "chain insert/find" `Quick test_chain_insert_find;
    Alcotest.test_case "chain duplicate" `Quick test_chain_duplicate;
    Alcotest.test_case "chain watermark" `Quick test_chain_watermark_monotone;
    Alcotest.test_case "chain watermark over a run" `Quick
      test_chain_watermark_over;
    Alcotest.test_case "chain iter_range" `Quick test_chain_iter_range;
    Alcotest.test_case "table window" `Quick test_table_window;
    Alcotest.test_case "table counts" `Quick test_table_counts;
    QCheck_alcotest.to_alcotest prop_chain_matches_reference;
    QCheck_alcotest.to_alcotest prop_chain_ops_match_reference;
    QCheck_alcotest.to_alcotest prop_table_matches_model ]
