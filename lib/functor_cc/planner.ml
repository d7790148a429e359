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
  on_stratum_done : (size:int -> workers:int array -> unit) option;
  on_evaluated : (elapsed_us:int -> unit) option;
  m_plans : int ref;
  m_nodes : int ref;
  m_edges : int ref;
  m_subs_sent : int ref;
  m_real_strata : int ref;
  m_real_evaluated : int ref;
  m_real_fallback : int ref;
  metrics : Sim.Metrics.t;
}

type stats = {
  nodes : int;
  edges : int;
  strata : int;
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
    metrics }

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

(* A plan's key runs, level by level: one key's version-ascending plan
   nodes at one level, a contiguous piece of the key's writer segment
   ([seg.(pos) .. seg.(pos + len - 1)]).  Levels never decrease along a
   key (intra-key edges weigh 0), so every segment splits into maximal
   same-level runs; a plan without read edges is all level 0, and each
   of its segments is one run.  Level [l]'s runs are
   [pos.(off.(l)) .. pos.(off.(l + 1) - 1)], with their lengths in [len],
   ordered by their head's plan index, so the commit order depends on the
   plan alone. *)
type runs = { off : int array; pos : int array; len : int array }

(* Node [i]'s level; an empty [level] array is a plan all at level 0. *)
let level_of level i = if Array.length level = 0 then 0 else level.(i)

(* A stable counting sort of plan nodes [xs] (ascending) by level:
   level [l]'s are [a.(off.(l)) .. a.(off.(l + 1) - 1)], in plan order. *)
let by_level ~level ~levels xs =
  let off = Array.make (levels + 1) 0 in
  Array.iter
    (fun i ->
      let l = level_of level i in
      off.(l + 1) <- off.(l + 1) + 1)
    xs;
  for l = 1 to levels do
    off.(l) <- off.(l) + off.(l - 1)
  done;
  let a = Array.make (Array.length xs) 0 and fill = Array.sub off 0 levels in
  Array.iter
    (fun i ->
      let l = level_of level i in
      a.(fill.(l)) <- i;
      fill.(l) <- fill.(l) + 1)
    xs;
  (off, a)

(* Split every key's segment [seg.(start.(d)) .. seg.(start.(d + 1) - 1)]
   into its maximal same-level runs (a plan all at level 0: the whole
   segment, without a pass over its nodes), then order them by level and
   head plan index. *)
let key_runs ~start ~seg ~level ~levels =
  let runs = ref [] in
  for d = 0 to Array.length start - 2 do
    let k = ref start.(d) in
    while !k < start.(d + 1) do
      let l = level_of level seg.(!k) in
      let e = ref start.(d + 1) in
      if Array.length level > 0 then begin
        e := !k + 1;
        while !e < start.(d + 1) && level.(seg.(!e)) = l do
          incr e
        done
      end;
      runs := (l, !k, !e - !k) :: !runs;
      k := !e
    done
  done;
  let a = Array.of_list !runs in
  Array.sort
    (fun (l1, p1, _) (l2, p2, _) ->
      if l1 <> l2 then Int.compare l1 l2 else Int.compare seg.(p1) seg.(p2))
    a;
  let off = Array.make (levels + 1) 0 in
  Array.iter (fun (l, _, _) -> off.(l + 1) <- off.(l + 1) + 1) a;
  for l = 1 to levels do
    off.(l) <- off.(l) + off.(l - 1)
  done;
  { off; pos = Array.map (fun (_, p, _) -> p) a;
    len = Array.map (fun (_, _, m) -> m) a }

(* Real runtime: evaluate the plan eagerly, level by level, one pool
   batch per level and one task per key run, each a
   {!Compute_engine.par_eval_run} over the run's nodes the bind pass did
   not fold (a version-ordered prefix of each key's segment, all at level
   0); a run it folded whole is no task, and a level without a task runs
   no chunk.  Only the plan's readers (nodes with a read set, [readers] in
   ascending plan order) are staged here, before their level's batch.
   [run_batch] is the level barrier; [par_commit] then applies every
   cross-cutting effect back on this domain, level by level and run by
   run in plan order, so commit order does not depend on the domain count
   or on which nodes were folded.  Returns how many nodes were
   evaluated, [folded] of them in the bind pass. *)
let eval_levels t rpool ~now ~nodes ~seg ~runs ~level ~readers ~folded =
  let levels = Array.length runs.off - 1 in
  let rd_off, readers = by_level ~level ~levels readers in
  let n = Array.length seg in
  (* Slot [k] is node [seg.(k)]'s, so a run's slots are contiguous and
     two domains never write one cache line but at a run's edge.  A plan
     folded whole reads no slot. *)
  let slots = Compute_engine.par_slots (if folded = n then 0 else n) in
  let folded_at k =
    Compute_engine.is_folded nodes.Compute_engine.node_op.(seg.(k))
  in
  let slot_of =
    if Array.length readers = 0 then [||]
    else begin
      let a = Array.make n 0 in
      Array.iteri (fun k i -> a.(i) <- k) seg;
      a
    end
  in
  let evaluated = ref 0 in
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
      Compute_engine.par_stage t.engine ~now slots slot_of.(i) nodes i
    done;
    let before =
      match t.on_stratum_done with
      | Some _ -> Runtime.Pool.worker_stats rpool
      | None -> [||]
    in
    let tasks = ref [] in
    for r = r1 - 1 downto r0 do
      (* The folded nodes lead their segment: a run whose last node was
         folded was folded whole. *)
      let stop = runs.pos.(r) + runs.len.(r) in
      if not (folded_at (stop - 1)) then begin
        let pos = ref runs.pos.(r) in
        while folded_at !pos do
          incr pos
        done;
        let pos = !pos in
        tasks :=
          (fun () ->
            Compute_engine.par_eval_run t.engine ~now slots nodes seg ~pos
              ~len:(stop - pos))
          :: !tasks
      end
    done;
    Runtime.Pool.run_batch rpool (Array.of_list !tasks);
    (match t.on_stratum_done with
    | Some f ->
        let after = Runtime.Pool.worker_stats rpool in
        f ~size ~workers:(Array.map2 (fun c0 c1 -> c1 - c0) before after)
    | None -> ());
    for r = r0 to r1 - 1 do
      for k = runs.pos.(r) to runs.pos.(r) + runs.len.(r) - 1 do
        match
          Compute_engine.par_commit t.engine slots k nodes seg.(k)
        with
        | Compute_engine.Par_untouched -> ()
        | Compute_engine.Par_evaluated -> incr evaluated
        | Compute_engine.Par_released -> incr t.m_real_fallback
      done
    done
  done;
  t.m_real_evaluated := !(t.m_real_evaluated) + !evaluated;
  !evaluated

(* Key id -> the plan's record of that key. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

(* A key of the plan: its dense index, its chain (empty when the table
   has none), the chain index of its latest item found, where the next
   item of the key, usually the next version, is looked for first, and,
   under the real runtime, its fold while every node of the key bound so
   far took the fold step. *)
type plan_key = {
  d : int;
  chain : Funct.t Mvstore.Chain.t;
  mutable cursor : int;
  mutable fold : Compute_engine.fold option;
}

(* Plan completion: one shared waiter on every node still pending once the
   real runtime's level batches are done (every node, under the simulated
   runtime), host-side only, so the evaluation histogram costs the
   simulation nothing.  A plan with nothing left pending completes now;
   [all_final] (the domains evaluated every node) skips the scan.
   Returns whether any node is left pending. *)
let track_completion t ~sim_t0 ~(nodes : Compute_engine.nodes) ~n ~all_final =
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
  if not all_final then
    for i = 0 to n - 1 do
      if not (Funct.is_final nodes.records.(i)) then begin
        incr remaining;
        Funct.add_waiter nodes.pendings.(i) on_final
      end
    done;
  if !remaining = 0 then finish ();
  !remaining > 0

let run t ~items =
  let build_t0 = Obs.Ledger.wall_us () in
  let sim_t0 = t.now () in
  let n_items = List.length items in
  (* 1. Prepare: bind each still-pending item to its record, as plan node
     [n] in item order.  Already-final items (blind VALUE/DELETE writes,
     raced computations) carry no node ([item_node] -1) but still get a
     dispatch job below, so the simulator sees one job per buffered item.
     Every distinct key gets a dense index [d] on first sight — one
     int-keyed probe per item — and its chain is looked up once, there.
     Installs arrive mostly in version order, so an item's record is
     usually the chain entry after its key's previous item's, and the
     chain is searched only when it is not.  The real runtime evaluates
     plain built-ins here, while the record is at hand: each key's fold
     takes its nodes in bind order until the first it cannot take (a
     user functor, a pending record below, a result too wide), whose key
     leaves the rest to the level batches. *)
  let table = Compute_engine.table t.engine in
  let key_index = Int_tbl.create 64 in
  let seen = ref [] and n_keys = ref 0 and folded = ref 0 in
  let plan_key key =
    let kid = Key.id key in
    match Int_tbl.find key_index kid with
    | k -> k
    | exception Not_found ->
        let chain =
          match Mvstore.Table.chain table key with
          | Some chain -> chain
          | None -> Mvstore.Chain.create ()
        in
        let fold =
          if Option.is_some t.real then Some (Compute_engine.fold_start ())
          else None
        in
        let k = { d = !n_keys; chain; cursor = -1; fold } in
        seen := (key, k) :: !seen;
        Int_tbl.add key_index kid k;
        incr n_keys;
        k
  in
  let item_node = Array.make n_items (-1) in
  let node_key = Array.make n_items 0 and node_ver = Array.make n_items 0 in
  let node_op = if Option.is_some t.real then Array.make n_items 0 else [||] in
  (* [records] and [pendings] are allocated at the first node, [n_items]
     long *)
  let records = ref [||] and pendings = ref [||] in
  let n = ref 0 and readers = ref [] in
  List.iteri
    (fun i { Processor.key; version } ->
      let k = plan_key key in
      let chain = k.chain in
      let c = k.cursor + 1 in
      let j =
        if c < Mvstore.Chain.length chain && Mvstore.Chain.version_at chain c = version
        then c
        else Mvstore.Chain.rank chain ~version
      in
      if j >= 0 && Mvstore.Chain.version_at chain j = version then begin
        k.cursor <- j;
        let record = Mvstore.Chain.payload_at chain j in
        match record.Funct.state with
        | Funct.Final _ -> ()
        | Funct.Pending p ->
            let m = !n in
            if m = 0 then begin
              records := Array.make n_items record;
              pendings := Array.make n_items p
            end;
            !records.(m) <- record;
            !pendings.(m) <- p;
            node_key.(m) <- k.d;
            node_ver.(m) <- version;
            if Array.length node_op > 0 then
              node_op.(m) <-
                (match k.fold with
                | None -> Compute_engine.plain_op p
                | Some f ->
                    let op =
                      Compute_engine.fold_bind chain f ~idx:j ~now:sim_t0
                        record p
                    in
                    if Compute_engine.is_folded op then incr folded
                    else begin
                      Compute_engine.fold_publish chain f;
                      k.fold <- None
                    end;
                    op);
            if p.farg.Funct.read_set <> [] then readers := m :: !readers;
            item_node.(i) <- m;
            n := m + 1
      end)
    items;
  let n = !n and n_keys = !n_keys and folded = !folded in
  let readers = Array.of_list (List.rev !readers) in
  let seen = Array.of_list (List.rev !seen) in
  let keys = Array.map fst seen
  and chains = Array.map (fun (_, k) -> k.chain) seen in
  Array.iter
    (fun (_, k) ->
      match k.fold with
      | Some f -> Compute_engine.fold_publish k.chain f
      | None -> ())
    seen;
  let records = !records and pendings = !pendings in
  let nodes =
    { Compute_engine.keys; chains; node_key; node_ver; node_op; records;
      pendings }
  in
  (* 2. Writer segments: a counting sort of the node indices by key.  Key
     [d]'s nodes are [seg.(start.(d)) .. seg.(start.(d + 1) - 1)], placed
     in plan order; installs arrive mostly in version order, so a segment
     is usually born version-ascending, and only one that is not gets
     sorted, in place: reversed when it was born newest first, else by
     insertion (a step per node and per inversion).  Neither allocates. *)
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
      let lo = start.(d) and hi = start.(d + 1) - 1 in
      let k = ref (lo + 1) in
      while !k <= hi && node_ver.(seg.(!k - 1)) > node_ver.(seg.(!k)) do
        incr k
      done;
      if !k > hi then
        for j = 0 to ((hi - lo + 1) / 2) - 1 do
          let x = seg.(lo + j) in
          seg.(lo + j) <- seg.(hi - j);
          seg.(hi - j) <- x
        done
      else
        for k = lo + 1 to hi do
          let x = seg.(k) in
          let j = ref (k - 1) in
          while !j >= lo && node_ver.(seg.(!j)) > node_ver.(x) do
            seg.(!j + 1) <- seg.(!j);
            decr j
          done;
          seg.(!j + 1) <- x
        done
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
  (* 3a. Intra-key edges: each functor depends on the plan's next-lower
     version of its own key — exactly the previous element of its
     segment, so no lookup is needed.  Built-ins really do read own-key
     at version - 1; for user functors the edge is conservative (the
     watermark publishes in version order even though their records may
     finalise out of it).  They weigh no level: a key's run is evaluated
     in version order on one worker.  A segment of [m] nodes holds
     [m - 1] of them. *)
  let edges = ref 0 and longest = ref 0 in
  for d = 0 to n_keys - 1 do
    let m = start.(d + 1) - start.(d) in
    if m > 0 then edges := !edges + m - 1;
    if m > !longest then longest := m
  done;
  let subs = ref 0 in
  (* 3b. Read→write edges for explicit read sets, own key included.  They
     weigh one level: the reader is staged on the orchestrator, which
     needs its producers final before the reader's batch starts.  The
     real runtime stages exactly the nodes collected in [readers]. *)
  let read_edges = ref [] in
  Array.iter
    (fun i ->
      let p = pendings.(i) in
      let key = keys.(node_key.(i)) in
      let ver = node_ver.(i) in
      let pushed = p.Funct.farg.Funct.pushed_reads in
      List.iter
        (fun rk ->
          if t.is_local rk then begin
            match Int_tbl.find key_index (Key.id rk) with
            | exception Not_found -> ()
            | { d; _ } ->
                let j = producer_le d ~bound:(ver - 1) in
                if j >= 0 then begin
                  read_edges := (j, i) :: !read_edges;
                  incr edges
                end
          end
          else
            match t.send_plan_sub with
            | Some send when not (List.exists (Key.equal rk) pushed) ->
                (* Cross-partition read: subscribe to the owner's value at
                   the bound version; the reply rides the §IV-B push
                   path. *)
                incr subs;
                send ~key:rk ~version:(ver - 1) ~dst_key:key ~dst_version:ver
            | Some _ | None -> ())
        p.farg.Funct.read_set)
    readers;
  (* Without read edges every node is level 0 and its depth is its
     position in its segment plus one, so the strata are the longest
     segment; otherwise one topological pass gives both. *)
  let level, strata =
    match !read_edges with
    | [] -> ([||], !longest)
    | read_edges ->
        let next = Array.make n (-1) and indeg = Array.make n 0 in
        for d = 0 to n_keys - 1 do
          for k = start.(d) + 1 to start.(d + 1) - 1 do
            next.(seg.(k - 1)) <- seg.(k);
            indeg.(seg.(k)) <- indeg.(seg.(k)) + 1
          done
        done;
        List.iter (fun (_, i) -> indeg.(i) <- indeg.(i) + 1) read_edges;
        let r_off, r_adj = csr ~n read_edges in
        let depth, level = topo_levels ~next ~r_off ~r_adj ~indeg in
        (level, Array.fold_left max 0 depth)
  in
  let build_us = max 0 (Obs.Ledger.wall_us () - build_t0) in
  let stats =
    { nodes = n; edges = !edges; strata; subs_sent = !subs }
  in
  let pending_left = ref false in
  if n > 0 then begin
    incr t.m_plans;
    t.m_nodes := !(t.m_nodes) + n;
    t.m_edges := !(t.m_edges) + !edges;
    t.m_subs_sent := !(t.m_subs_sent) + !subs;
    Sim.Metrics.record_latency t.metrics "plan.build_us" build_us;
    Sim.Metrics.record_latency t.metrics "plan.strata" strata;
    (* 3r. Real runtime: evaluate the plan eagerly on the worker-domain
       pool before the simulated dispatch below.  That dispatch still
       runs with the same jobs (keeping the simulated timeline that of
       `--runtime sim`): evaluated records no-op, while items the stager
       rejected are computed there with the full machinery. *)
    let all_final =
      match t.real with
      | Some rpool ->
          let levels = Array.fold_left max 0 level + 1 in
          let runs = key_runs ~start ~seg ~level ~levels in
          eval_levels t rpool ~now:sim_t0 ~nodes ~seg ~runs ~level ~readers
            ~folded
          = n
      | None -> false
    in
    pending_left := track_completion t ~sim_t0 ~nodes ~n ~all_final
  end;
  (* 4. Dispatch one job per *item* in install order, [dispatch_cost_us]
     each, as one worker-pool run, so the simulated job sequence does not
     depend on the graph's shape or the runtime.  Items without a node
     were already final and dispatch as no-ops.  When the real runtime
     left no node pending, every job would be a no-op: the run is silent
     (no callback; one completion per worker lane on an idle pool).
     Otherwise the run releases each node as its job fires: jobs of one
     run complete in index order and node indices follow item order, so
     a fired node's entries (and every unused one past [n]) can point at
     the plan's last node, whose own job drops the arrays. *)
  (match t.on_dispatch with
  | Some f ->
      List.iter (fun { Processor.key; version } -> f ~key ~version) items
  | None -> ());
  if Option.is_some t.real && not !pending_left then
    Sim.Worker_pool.submit_silent t.pool ~cost:t.dispatch_cost_us
      ~count:n_items
  else begin
    let live = ref (Some nodes) in
    if n > 0 then begin
      Array.fill records n (n_items - n) records.(n - 1);
      Array.fill pendings n (n_items - n) pendings.(n - 1)
    end;
    let job i =
      let j = item_node.(i) in
      match !live with
      | Some nodes when j >= 0 ->
          Compute_engine.compute_node t.engine nodes j;
          if j = n - 1 then live := None
          else begin
            records.(j) <- records.(n - 1);
            pendings.(j) <- pendings.(n - 1)
          end
      | Some _ | None -> ()
    in
    Sim.Worker_pool.submit_run t.pool ~cost:t.dispatch_cost_us ~count:n_items
      job
  end;
  stats
