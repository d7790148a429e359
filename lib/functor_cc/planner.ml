module Key = Mvstore.Key

type t = {
  engine : Compute_engine.t;
  pool : Sim.Worker_pool.t;
  real : Runtime.Pool.t option;
  dispatch_cost_us : int;
  is_local : Key.t -> bool;
  send_plan_sub :
    (key:Key.t -> version:int -> dst_key:Key.t -> dst_version:int -> unit)
    option;
  now : unit -> int;
  on_dispatch : (key:Key.t -> version:int -> unit) option;
  on_stratum : (size:int -> unit) option;
  on_stratum_done : (size:int -> workers:(int * int * int) array -> unit) option;
  on_evaluated : (elapsed_us:int -> unit) option;
  m_plans : int ref;
  m_nodes : int ref;
  m_edges : int ref;
  m_subs_sent : int ref;
  m_real_strata : int ref;
  m_real_evaluated : int ref;
  m_real_fallback : int ref;
  metrics : Sim.Metrics.t;
  mutable plans : int;
}

type stats = {
  nodes : int;
  edges : int;
  strata : int;
  critical_path : int;
  subs_sent : int;
}

let create ~engine ~pool ?real ~dispatch_cost_us ~metrics
    ?(is_local = fun _ -> true)
    ?send_plan_sub
    ?(now = fun () -> 0) ?on_dispatch ?on_stratum ?on_stratum_done
    ?on_evaluated () =
  let c = Sim.Metrics.counter metrics in
  { engine; pool; real; dispatch_cost_us; is_local; send_plan_sub; now;
    on_dispatch; on_stratum; on_stratum_done; on_evaluated;
    m_plans = c "plan.plans";
    m_nodes = c "plan.nodes";
    m_edges = c "plan.edges";
    m_subs_sent = c "plan.subs_sent";
    m_real_strata = c "plan.real_strata";
    m_real_evaluated = c "plan.real_evaluated";
    m_real_fallback = c "plan.real_fallback";
    metrics; plans = 0 }

let plans t = t.plans

let read_set node =
  (Compute_engine.prepared_pending node).Funct.farg.Funct.read_set

(* Read→write edges as a CSR: the readers of node [u] are
   [adj.(off.(u)) .. adj.(off.(u + 1) - 1)]; both arrays are empty when the
   plan has no read edge. *)
let csr ~n read_edges =
  match read_edges with
  | [] -> ([||], [||])
  | _ ->
      (* Count into [off.(src)], prefix-sum to end offsets, then place each
         edge by decrementing its source's offset down to the start. *)
      let off = Array.make (n + 1) 0 in
      List.iter (fun (src, _) -> off.(src) <- off.(src) + 1) read_edges;
      for i = 1 to n do
        off.(i) <- off.(i) + off.(i - 1)
      done;
      let adj = Array.make off.(n) 0 in
      List.iter
        (fun (src, dst) ->
          off.(src) <- off.(src) - 1;
          adj.(off.(src)) <- dst)
        read_edges;
      (off, adj)

(* One topological pass (Kahn peeling with an array queue) over the plan
   graph: intra-key edges [u -> next.(u)] (-1: none) and the read→write
   CSR [r_off]/[r_adj].  For every node it computes:
   - [depth]: 1 + the longest chain of edges reaching it — the Kahn
     stratum it would peel in, so the maximum depth is the stratum count;
   - [level]: the same longest path with intra-key edges weighing 0 and
     read→write edges 1 — the batch the real runtime evaluates it in.
   Both are maxima over predecessors, so the peeling order does not
   matter.  Edges strictly increase version, so the graph is a DAG and
   the pass consumes every node.  Consumes [indeg]. *)
let topo_levels ~next ~r_off ~r_adj ~indeg =
  let n = Array.length next in
  let depth = Array.make n 1 and level = Array.make n 0 in
  let queue = Array.make n 0 and head = ref 0 and tail = ref 0 in
  let push v =
    queue.(!tail) <- v;
    incr tail
  in
  let relax u v ~w =
    if depth.(u) + 1 > depth.(v) then depth.(v) <- depth.(u) + 1;
    if level.(u) + w > level.(v) then level.(v) <- level.(u) + w;
    indeg.(v) <- indeg.(v) - 1;
    if indeg.(v) = 0 then push v
  in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then push i
  done;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    if next.(u) >= 0 then relax u next.(u) ~w:0;
    if Array.length r_off > 0 then
      for k = r_off.(u) to r_off.(u + 1) - 1 do
        relax u r_adj.(k) ~w:1
      done
  done;
  assert (!tail = n);
  (depth, level)

(* A level's key runs: one key's version-ascending plan nodes at one
   level, from a head along [next].  Levels never decrease along a key
   (intra-key edges weigh 0), so every key's chain of [next] links splits
   into maximal same-level runs.  Level [l]'s runs are
   [head.(off.(l)) .. head.(off.(l + 1) - 1)] with their lengths in [len],
   ordered by their head's plan index, so the commit order depends on the
   plan alone. *)
type runs = { off : int array; head : int array; len : int array }

(* A stable counting sort of plan nodes [xs] (ascending) by level:
   level [l]'s are [a.(off.(l)) .. a.(off.(l + 1) - 1)], in plan order. *)
let by_level ~level ~levels xs =
  let off = Array.make (levels + 1) 0 in
  Array.iter (fun i -> off.(level.(i) + 1) <- off.(level.(i) + 1) + 1) xs;
  for l = 1 to levels do
    off.(l) <- off.(l) + off.(l - 1)
  done;
  let a = Array.make (Array.length xs) 0 and fill = Array.sub off 0 levels in
  Array.iter
    (fun i ->
      let l = level.(i) in
      a.(fill.(l)) <- i;
      fill.(l) <- fill.(l) + 1)
    xs;
  (off, a)

let runs_by_level ~next ~level ~levels =
  let n = Array.length next in
  let same_level i = next.(i) >= 0 && level.(next.(i)) = level.(i) in
  let is_head = Array.make n true and n_heads = ref n in
  for i = 0 to n - 1 do
    if same_level i then begin
      is_head.(next.(i)) <- false;
      decr n_heads
    end
  done;
  let heads = Array.make !n_heads 0 and k = ref 0 in
  for i = 0 to n - 1 do
    if is_head.(i) then begin
      heads.(!k) <- i;
      incr k
    end
  done;
  let off, head = by_level ~level ~levels heads in
  let len =
    Array.map
      (fun h ->
        let j = ref h and m = ref 1 in
        while same_level !j do
          j := next.(!j);
          incr m
        done;
        !m)
      head
  in
  { off; head; len }

(* One run on one worker.  [par_eval] writes each node's claim to its
   slot before evaluating it, so if a handler raises, the commit still
   sees every claimed record and releases it, and the run's later nodes
   stay unclaimed. *)
let eval_run engine ~now ~slots ~nodes ~next head len () =
  let i = ref head in
  for _ = 1 to len do
    Compute_engine.par_eval engine ~now slots !i nodes.(!i);
    i := next.(!i)
  done

(* Real runtime: evaluate the plan eagerly, level by level, one pool
   batch per level and one task per key run.  Only the plan's readers
   (nodes with a read set, [readers] in descending plan order) are
   staged here, before their level's batch.  [run_batch] is the level
   barrier; [par_commit] then applies every cross-cutting effect back on
   this domain, level by level and run by run in plan order, so commit
   order does not depend on the domain count. *)
let eval_levels t rpool ~now ~nodes ~next ~level ~readers =
  let levels = Array.fold_left max 0 level + 1 in
  let runs = runs_by_level ~next ~level ~levels in
  let rd_off, readers =
    by_level ~level ~levels (Array.of_list (List.rev readers))
  in
  let slots = Compute_engine.par_slots (Array.length next) in
  for l = 0 to levels - 1 do
    let r0 = runs.off.(l) and r1 = runs.off.(l + 1) in
    let size = ref 0 in
    for r = r0 to r1 - 1 do
      size := !size + runs.len.(r)
    done;
    let size = !size in
    (match t.on_stratum with Some f -> f ~size | None -> ());
    incr t.m_real_strata;
    for k = rd_off.(l) to rd_off.(l + 1) - 1 do
      let i = readers.(k) in
      Compute_engine.par_stage t.engine ~now slots i nodes.(i)
    done;
    let before =
      match t.on_stratum_done with
      | Some _ -> Runtime.Pool.worker_stats rpool
      | None -> [||]
    in
    Runtime.Pool.run_batch rpool
      (Array.init (r1 - r0) (fun r ->
           eval_run t.engine ~now ~slots ~nodes ~next runs.head.(r0 + r)
             runs.len.(r0 + r)));
    (match t.on_stratum_done with
    | Some f ->
        let after = Runtime.Pool.worker_stats rpool in
        f ~size
          ~workers:
            (Array.mapi
               (fun i (c1, s1, q1) ->
                 let c0, s0, _ = before.(i) in
                 (c1 - c0, s1 - s0, q1))
               after)
    | None -> ());
    for r = r0 to r1 - 1 do
      let i = ref runs.head.(r) in
      for _ = 1 to runs.len.(r) do
        (match Compute_engine.par_commit t.engine slots !i nodes.(!i) with
        | Compute_engine.Par_untouched -> ()
        | Compute_engine.Par_evaluated -> incr t.m_real_evaluated
        | Compute_engine.Par_released -> incr t.m_real_fallback);
        i := next.(!i)
      done
    done
  done

(* Key id -> the plan's dense index of that key. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

(* Plan completion: one shared waiter on every node still pending once the
   real runtime's level batches are done (every node, under the simulated
   runtime), host-side only, so the evaluation histogram costs the
   simulation nothing.  A plan with nothing left pending completes now.
   Returns whether any node is left pending. *)
let track_completion t ~sim_t0 ~nodes ~n =
  let finish () =
    let elapsed_us = t.now () - sim_t0 in
    Sim.Metrics.record_latency t.metrics "plan.evaluate_us" elapsed_us;
    match t.on_evaluated with Some f -> f ~elapsed_us | None -> ()
  in
  let remaining = ref 0 in
  let on_final _ =
    decr remaining;
    if !remaining = 0 then finish ()
  in
  for i = 0 to n - 1 do
    if not (Compute_engine.prepared_is_final nodes.(i)) then begin
      incr remaining;
      Funct.add_waiter (Compute_engine.prepared_pending nodes.(i)) on_final
    end
  done;
  if !remaining = 0 then finish ();
  !remaining > 0

let run t ~items =
  let build_t0 = Sys.time () in
  let sim_t0 = t.now () in
  let items_a = Array.of_list items in
  let n_items = Array.length items_a in
  (* 1. Prepare: bind each still-pending item to its chain + record, as
     plan node [n] in item order.  Already-final items (blind VALUE/DELETE
     writes, raced computations) carry no node ([item_node] -1) but still
     get a dispatch job below, so the simulator sees one job per buffered
     item.  Every distinct key gets a dense index [d] on first sight — one
     int-keyed probe per item — and its chain is looked up once, there. *)
  let table = Compute_engine.table t.engine in
  let key_index = Int_tbl.create 64 in
  let chains = Array.make n_items None and n_keys = ref 0 in
  let dense_key key =
    let kid = Key.id key in
    match Int_tbl.find key_index kid with
    | d -> d
    | exception Not_found ->
        let d = !n_keys in
        chains.(d) <- Mvstore.Table.chain table key;
        Int_tbl.add key_index kid d;
        incr n_keys;
        d
  in
  let item_node = Array.make n_items (-1) in
  let node_key = Array.make n_items 0 and node_ver = Array.make n_items 0 in
  (* [nodes.(0 .. n - 1)]; allocated at the first node, [n_items] long *)
  let nodes = ref [||] and n = ref 0 in
  Array.iteri
    (fun i { Processor.key; version } ->
      let d = dense_key key in
      match chains.(d) with
      | None -> ()
      | Some chain -> (
          match Compute_engine.prepare_in ~chain ~key ~version with
          | None -> ()
          | Some node ->
              if !n = 0 then nodes := Array.make n_items node;
              !nodes.(!n) <- node;
              item_node.(i) <- !n;
              node_key.(!n) <- d;
              node_ver.(!n) <- version;
              incr n))
    items_a;
  let nodes = !nodes and n = !n and n_keys = !n_keys in
  (* 2. Writer segments: a counting sort of the node indices by key.  Key
     [d]'s nodes are [seg.(start.(d)) .. seg.(start.(d + 1) - 1)], placed
     in plan order; installs arrive mostly in version order, so a segment
     is usually born version-ascending, and only one that is not gets
     sorted. *)
  let start = Array.make (n_keys + 1) 0 in
  for i = 0 to n - 1 do
    start.(node_key.(i) + 1) <- start.(node_key.(i) + 1) + 1
  done;
  for d = 1 to n_keys do
    start.(d) <- start.(d) + start.(d - 1)
  done;
  let seg = Array.make n 0 and fill = Array.sub start 0 n_keys in
  let sorted = Array.make n_keys true in
  for i = 0 to n - 1 do
    let d = node_key.(i) in
    let pos = fill.(d) in
    if pos > start.(d) && node_ver.(seg.(pos - 1)) > node_ver.(i) then
      sorted.(d) <- false;
    seg.(pos) <- i;
    fill.(d) <- pos + 1
  done;
  for d = 0 to n_keys - 1 do
    if not sorted.(d) then begin
      let a = Array.sub seg start.(d) (start.(d + 1) - start.(d)) in
      Array.stable_sort (fun i j -> Int.compare node_ver.(i) node_ver.(j)) a;
      Array.blit a 0 seg start.(d) (Array.length a)
    end
  done;
  (* Node index of key [d]'s largest plan version <= bound, or -1. *)
  let producer_le d ~bound =
    let lo = ref start.(d) and hi = ref (start.(d + 1) - 1) and ans = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if node_ver.(seg.(mid)) <= bound then begin
        ans := seg.(mid);
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    !ans
  in
  let next = Array.make n (-1) and indeg = Array.make n 0 in
  let edges = ref 0 in
  let subs = ref 0 in
  (* 3a. Intra-key edges: each functor depends on the plan's next-lower
     version of its own key — exactly the previous element of its
     segment, so no lookup is needed.  Built-ins really do read own-key
     at version - 1; for user functors the edge is conservative (the
     watermark publishes in version order even though their records may
     finalise out of it).  They weigh no level: a key's run is evaluated
     in version order on one worker. *)
  for d = 0 to n_keys - 1 do
    for k = start.(d) + 1 to start.(d + 1) - 1 do
      next.(seg.(k - 1)) <- seg.(k);
      indeg.(seg.(k)) <- indeg.(seg.(k)) + 1;
      incr edges
    done
  done;
  (* 3b. Read→write edges for explicit read sets, own key included.  They
     weigh one level: the reader is staged on the orchestrator, which
     needs its producers final before the reader's batch starts.  The
     real runtime stages exactly the nodes collected in [readers]. *)
  let read_edges = ref [] and readers = ref [] in
  for i = 0 to n - 1 do
    match read_set nodes.(i) with
    | [] -> ()
    | read_set ->
        if Option.is_some t.real then readers := i :: !readers;
        let p = Compute_engine.prepared_pending nodes.(i) in
        let key = Compute_engine.prepared_key nodes.(i) in
        let ver = node_ver.(i) in
        let pushed = p.Funct.farg.Funct.pushed_reads in
        List.iter
          (fun rk ->
            if t.is_local rk then begin
              match Int_tbl.find key_index (Key.id rk) with
              | exception Not_found -> ()
              | d ->
                  let j = producer_le d ~bound:(ver - 1) in
                  if j >= 0 then begin
                    read_edges := (j, i) :: !read_edges;
                    indeg.(i) <- indeg.(i) + 1;
                    incr edges
                  end
            end
            else
              match t.send_plan_sub with
              | Some send when not (List.exists (Key.equal rk) pushed) ->
                  (* Cross-partition read: subscribe to the owner's value
                     at the bound version; the reply rides the §IV-B push
                     path. *)
                  incr subs;
                  send ~key:rk ~version:(ver - 1) ~dst_key:key
                    ~dst_version:ver
              | Some _ | None -> ())
          read_set
  done;
  let r_off, r_adj = csr ~n !read_edges in
  let depth, level = topo_levels ~next ~r_off ~r_adj ~indeg in
  let strata = Array.fold_left max 0 depth in
  let critical_path = if strata = 0 then 0 else strata - 1 in
  let build_us =
    int_of_float (Float.max 0. ((Sys.time () -. build_t0) *. 1e6))
  in
  let stats =
    { nodes = n; edges = !edges; strata; critical_path; subs_sent = !subs }
  in
  let pending_left = ref false in
  if n > 0 then begin
    t.plans <- t.plans + 1;
    incr t.m_plans;
    t.m_nodes := !(t.m_nodes) + n;
    t.m_edges := !(t.m_edges) + !edges;
    t.m_subs_sent := !(t.m_subs_sent) + !subs;
    Sim.Metrics.record_latency t.metrics "plan.build_us" build_us;
    Sim.Metrics.record_latency t.metrics "plan.strata" strata;
    Sim.Metrics.record_latency t.metrics "plan.critical_path" critical_path;
    (* 3r. Real runtime: evaluate the plan eagerly on the worker-domain
       pool before the simulated dispatch below.  That dispatch still
       runs with the same jobs (keeping the simulated timeline that of
       `--runtime sim`): evaluated records no-op, while items the stager
       rejected are computed there with the full machinery. *)
    (match t.real with
    | Some rpool ->
        eval_levels t rpool ~now:sim_t0 ~nodes ~next ~level ~readers:!readers
    | None -> ());
    pending_left := track_completion t ~sim_t0 ~nodes ~n
  end;
  (* 4. Dispatch one job per *item* in install order, [dispatch_cost_us]
     each, as one worker-pool run, so the simulated job sequence does not
     depend on the graph's shape or the runtime.  Items without a node
     were already final and dispatch as no-ops.  When the real runtime
     left no node pending, every job would be a no-op: the run is silent
     (no callback; one completion per worker lane on an idle pool).
     Otherwise the run releases each node as its job fires: jobs of one
     run complete in index order and node indices follow item order, so
     a fired node's slot (and every unused slot past [n]) can point at
     the plan's last node, whose own job drops the array. *)
  (match t.on_dispatch with
  | Some f ->
      Array.iter (fun { Processor.key; version } -> f ~key ~version) items_a
  | None -> ());
  if Option.is_some t.real && not !pending_left then
    Sim.Worker_pool.submit_silent t.pool ~cost:t.dispatch_cost_us
      ~count:n_items
  else begin
    let live = ref nodes in
    if n > 0 then Array.fill nodes n (Array.length nodes - n) nodes.(n - 1);
    let job i =
      let j = item_node.(i) in
      if j >= 0 then begin
        let node = !live.(j) in
        if j = n - 1 then live := [||] else !live.(j) <- !live.(n - 1);
        Compute_engine.compute_prepared t.engine node
      end
    in
    Sim.Worker_pool.submit_run t.pool ~cost:t.dispatch_cost_us ~count:n_items
      job
  end;
  stats
