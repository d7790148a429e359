module Key = Mvstore.Key

type callbacks = {
  is_local : Key.t -> bool;
  remote_get : key:Key.t -> version:int -> (Value.t option -> unit) -> unit;
  send_push :
    dst_key:Key.t -> version:int -> src_key:Key.t -> Value.t option -> unit;
  send_dep_write : key:Key.t -> version:int -> Funct.final -> unit;
  notify_final :
    key:Key.t -> version:int -> pending:Funct.pending ->
    final:Funct.final -> unit;
  exec : cost:int -> (unit -> unit) -> unit;
  now : unit -> int;
}

type t = {
  table : Funct.t Mvstore.Table.t;
  registry : Registry.t;
  cb : callbacks;
  compute_cost_us : int;
  (* Counter handles, resolved once here instead of a string-keyed
     hashtable lookup per event on the compute path. *)
  m_on_demand_waits : int ref;
  m_push_hits : int ref;
  m_remote_reads : int ref;
  m_pushes_sent : int ref;
  m_dep_marker_triggers : int ref;
  m_missing_handler : int ref;
  m_computed : int ref;
  m_aborts_computed : int ref;
  m_dep_writes_resolved : int ref;
  m_dep_write_duplicate : int ref;
  m_dep_write_direct : int ref;
  m_fastpath_merges : int ref;
  m_push_late : int ref;
  m_push_orphan : int ref;
  m_aborted_in_epoch : int ref;
}

let create ~registry ~callbacks ~compute_cost_us ~metrics () =
  let c = Sim.Metrics.counter metrics in
  { table = Mvstore.Table.create (); registry; cb = callbacks;
    compute_cost_us;
    m_on_demand_waits = c "fcc.on_demand_waits";
    m_push_hits = c "fcc.push_hits";
    m_remote_reads = c "fcc.remote_reads";
    m_pushes_sent = c "fcc.pushes_sent";
    m_dep_marker_triggers = c "fcc.dep_marker_triggers";
    m_missing_handler = c "fcc.missing_handler";
    m_computed = c "fcc.computed";
    m_aborts_computed = c "fcc.aborts_computed";
    m_dep_writes_resolved = c "fcc.dep_writes_resolved";
    m_dep_write_duplicate = c "fcc.dep_write_duplicate";
    m_dep_write_direct = c "fcc.dep_write_direct";
    m_fastpath_merges = c "fcc.fastpath_merges";
    m_push_late = c "fcc.push_late";
    m_push_orphan = c "fcc.push_orphan";
    m_aborted_in_epoch = c "fcc.aborted_in_epoch" }

let table t = t.table

let load_initial t ~key value =
  match
    Mvstore.Table.put_unchecked t.table ~key ~version:0 (Funct.mk_value value)
  with
  | Ok () -> ()
  | Error _ ->
      invalid_arg
        (Printf.sprintf "load_initial: duplicate key %S" (Key.name key))

let install t ~key ~version ~lo ~hi record =
  Mvstore.Table.put t.table ~key ~version ~lo ~hi record

let watermark t ~key =
  match Mvstore.Table.chain t.table key with
  | None -> -1
  | Some c -> Mvstore.Chain.watermark c

(* After a record turns final, push the key's watermark forward over the
   (now contiguous) prefix of final records.  This is the single-threaded
   counterpart of the CAS loop in Algorithm 1 lines 7–9.  One rank search
   then a linear walk, instead of a binary search per advanced version. *)
let refresh_watermark chain =
  Mvstore.Chain.advance_watermark_while chain ~f:Funct.is_final

(* Two kinds of dependent keys (§IV-E): declared ones, which carry a
   Dep_marker that must be resolved even when the write is skipped or
   the transaction aborts; and dynamically named ones (e.g. TPC-C
   order rows keyed by the order id assigned here), which have no
   marker and are simply inserted.  Handlers name dependent keys as
   strings; they are interned here, once per outcome.  Shared by the
   sequential [apply_outcome] and the real-runtime [par_commit] — both
   call it on the orchestrating domain ([Key.intern] takes a lock, but
   worker domains never get here). *)
let dep_writes_for (p : Funct.pending) outcome =
  let explicit =
    match outcome with
    | Registry.Commit_det (_, writes) -> writes
    | Registry.Commit _ | Registry.Abort | Registry.Delete -> []
  in
  let declared = p.farg.Funct.dependents in
  let of_dep_write = function
    | Registry.Dep_put v -> Funct.Committed v
    | Registry.Dep_delete -> Funct.Deleted_v
    | Registry.Dep_skip -> Funct.Aborted_v
  in
  let resolved_declared =
    List.map
      (fun dk ->
        match List.assoc_opt (Key.name dk) explicit with
        | Some w -> (dk, of_dep_write w)
        | None ->
            (* On txn abort (or when unspecified) the marker must
               reflect "no write": Aborted_v makes reads skip it. *)
            (dk, Funct.Aborted_v))
      declared
  in
  let dynamic =
    List.filter_map
      (fun (dk, w) ->
        if List.exists (fun d -> String.equal (Key.name d) dk) declared then
          None
        else Some (Key.intern dk, of_dep_write w))
      explicit
  in
  resolved_declared @ dynamic

let final_of_outcome = function
  | Registry.Commit v | Registry.Commit_det (v, _) -> Funct.Committed v
  | Registry.Abort -> Funct.Aborted_v
  | Registry.Delete -> Funct.Deleted_v

(* ADD/SUBTR/MAX/MIN as 1-4 (0: not a built-in), and a built-in's result
   from its code, argument and previous value. *)
let builtin_code = function
  | Ftype.Add -> 1
  | Ftype.Subtr -> 2
  | Ftype.Max -> 3
  | Ftype.Min -> 4
  | Ftype.Value | Ftype.Aborted | Ftype.Deleted | Ftype.User _
  | Ftype.Dep_marker _ ->
      0

let apply_builtin code arg p =
  match code with
  | 1 -> p + arg
  | 2 -> p - arg
  | 3 -> if arg > p then arg else p
  | 4 -> if arg < p then arg else p
  | _ -> assert false

(* A built-in's result over its own key's previous value [p].  Built-ins
   are total: an absent (or deleted) key counts as 0.  A built-in cannot
   abort, because it reads only its own key and so could never coordinate
   an all-or-nothing decision with the transaction's other functors
   (§IV-C); conditional semantics belong in user handlers whose read sets
   include the abort-influencing keys. *)
let builtin_result ftype p args =
  let arg0 =
    match args with
    | a :: _ -> Value.to_int a
    | [] -> invalid_arg "numeric functor: missing argument"
  in
  apply_builtin (builtin_code ftype) arg0 p

(* Finalisation's effects once the record is final and its watermark
   advanced: counters, [notify_final], then the record's waiters.
   [waiters]: whether [p] has any, so a record known to have none builds
   no closure over [final]. *)
let finish t ~key ~ver (p : Funct.pending) final ~waiters =
  (match final with
  | Funct.Aborted_v -> incr t.m_aborts_computed
  | Funct.Committed _ | Funct.Deleted_v -> ());
  incr t.m_computed;
  t.cb.notify_final ~key ~version:ver ~pending:p ~final;
  if waiters then begin
    let waiters = p.Funct.waiters in
    p.Funct.waiters <- [];
    List.iter (fun w -> w final) waiters
  end

let finalize t ~chain ~key ~ver record p final =
  record.Funct.state <- Funct.final_state final;
  refresh_watermark chain;
  finish t ~key ~ver p final ~waiters:true

(* A user handler's outcome for [p] at [ver] of [key] over [reads].  A
   handler bug ([Not_found], [Invalid_argument]) is a logic error: it
   aborts the transaction rather than wedging the engine. *)
let run_handler handler ~key ~ver reads (p : Funct.pending) =
  let ctx =
    { Registry.key = Key.name key; version = ver; reads;
      args = p.farg.Funct.args }
  in
  try handler ctx with Not_found | Invalid_argument _ -> Registry.Abort

(* §IV-B: ship [prev], this key's value below [ver], to the functors of
   every recipient key. *)
let send_pushes t ~key ~ver recipients prev =
  List.iter
    (fun dst_key ->
      incr t.m_pushes_sent;
      t.cb.send_push ~dst_key ~version:ver ~src_key:key prev)
    recipients

(* ---- Algorithm 1: Get ---------------------------------------------- *)

(* The chain handle is threaded through the whole per-key recursion
   (get → compute → finalize → refresh_watermark), so after the entry
   lookup the hot path never touches the table again. *)

let rec get t ~key ~version k =
  match Mvstore.Table.chain t.table key with
  | None -> k None
  | Some chain -> get_in t ~chain ~key ~version k

and get_in t ~chain ~key ~version k =
  match Mvstore.Chain.find_le chain ~version with
  | None -> k None
  | Some (ver, record) -> get_record t ~chain ~key ~ver record k

and get_record t ~chain ~key ~ver record k =
  match record.Funct.state with
  | Funct.Final (Funct.Committed v) -> k (Some v)
  | Funct.Final Funct.Deleted_v -> k None
  | Funct.Final Funct.Aborted_v ->
      (* Line 22–23: skip the aborted version downwards. *)
      if ver = 0 then k None else get_in t ~chain ~key ~version:(ver - 1) k
  | Funct.Pending p ->
      incr t.m_on_demand_waits;
      Funct.add_waiter p (fun final ->
          match final with
          | Funct.Committed v -> k (Some v)
          | Funct.Deleted_v -> k None
          | Funct.Aborted_v ->
              if ver = 0 then k None
              else get_in t ~chain ~key ~version:(ver - 1) k);
      ensure_computing t ~chain ~key ~ver record p

(* ---- read-set gathering --------------------------------------------- *)

(* Collect the values of [keys], each at the latest version strictly below
   [ver], paired with the key's name as a handler reads it.  Local keys
   recurse through [get]; remote keys race a proactive push (if one is
   destined for this functor) against an explicit remote read, whichever
   lands first. *)
and gather t ~p ~ver keys k =
  match keys with
  | [] -> k []
  | first :: _ ->
      let n = List.length keys in
      let results = Array.make n (Key.name first, None) in
      let remaining = ref n in
      let deliver i rk got v =
        if not !got then begin
          got := true;
          results.(i) <- (Key.name rk, v);
          decr remaining;
          if !remaining = 0 then k (Array.to_list results)
        end
      in
      (* Membership set built once per evaluation, not one list scan per
         remote key. *)
      let pushed_set =
        match p.Funct.farg.Funct.pushed_reads with
        | [] -> None
        | prs ->
            let h = Hashtbl.create 8 in
            List.iter (fun pk -> Hashtbl.replace h (Key.id pk) ()) prs;
            Some h
      in
      let expects_push rk =
        match pushed_set with
        | None -> false
        | Some h -> Hashtbl.mem h (Key.id rk)
      in
      List.iteri
        (fun i rk ->
          let got = ref false in
          match Funct.pushed_value p rk with
          | Some v ->
              incr t.m_push_hits;
              deliver i rk got v
          | None ->
              if t.cb.is_local rk then
                get t ~key:rk ~version:(ver - 1) (fun v -> deliver i rk got v)
              else if expects_push rk then begin
                (* §IV-B: a sibling functor will push this value; wait for
                   it instead of issuing a remote read.  If the whole
                   transaction is rolled back before the push, this
                   record is finalised as ABORTED and the waiter becomes
                   moot. *)
                Funct.on_push p ~key:rk (fun v ->
                    incr t.m_push_hits;
                    deliver i rk got v)
              end
              else begin
                (* Race: push vs remote read. *)
                Funct.on_push p ~key:rk (fun v ->
                    incr t.m_push_hits;
                    deliver i rk got v);
                incr t.m_remote_reads;
                t.cb.remote_get ~key:rk ~version:(ver - 1) (fun v ->
                    deliver i rk got v)
              end)
        keys

(* ---- computation ----------------------------------------------------- *)

and ensure_computing t ~chain ~key ~ver record (p : Funct.pending) =
  match p.status with
  | Funct.Computing -> ()
  | Funct.Installed ->
      p.status <- Funct.Computing;
      if p.retrieved_at_us < 0 then p.retrieved_at_us <- t.cb.now ();
      begin_compute t ~chain ~key ~ver record p

and begin_compute t ~chain ~key ~ver record p =
  (* Recipient-set pushes (§IV-B) happen as part of this functor's
     computing phase: ship this key's previous value to the functors of
     every recipient key, before running our own handler. *)
  let send_recipient_pushes prev_opt =
    match p.farg.Funct.recipients with
    | [] -> ()
    | recipients ->
        (match prev_opt with
        | Some prev -> send_pushes t ~key ~ver recipients prev
        | None ->
            get_in t ~chain ~key ~version:(ver - 1) (fun prev ->
                send_pushes t ~key ~ver recipients prev))
  in
  match p.ftype with
  | Ftype.Value | Ftype.Aborted | Ftype.Deleted ->
      (* mk_pending rejects these; a record can only reach here through
         memory corruption. *)
      assert false
  | Ftype.Dep_marker det_key ->
      (* §IV-E: resolution arrives via deliver_dep_write once the
         determinate functor computes; we only need to make sure that
         computation is triggered. *)
      incr t.m_dep_marker_triggers;
      if t.cb.is_local det_key then compute_key t ~key:det_key ~version:ver
      else
        (* A Get at exactly the marker's version forces the remote BE to
           compute the determinate functor; the reply itself is unused. *)
        t.cb.remote_get ~key:det_key ~version:ver (fun _ -> ())
  | Ftype.Add | Ftype.Subtr | Ftype.Max | Ftype.Min ->
      get_in t ~chain ~key ~version:(ver - 1) (fun prev ->
          send_recipient_pushes (Some prev);
          t.cb.exec ~cost:t.compute_cost_us (fun () ->
              let outcome = eval_builtin p.ftype prev p.farg.Funct.args in
              apply_outcome t ~chain ~key ~ver record p outcome))
  | Ftype.User name -> (
      match Registry.find t.registry name with
      | None ->
          incr t.m_missing_handler;
          apply_outcome t ~chain ~key ~ver record p Registry.Abort
      | Some handler ->
          send_recipient_pushes None;
          gather t ~p ~ver p.farg.Funct.read_set (fun reads ->
              t.cb.exec ~cost:t.compute_cost_us (fun () ->
                  let outcome = run_handler handler ~key ~ver reads p in
                  apply_outcome t ~chain ~key ~ver record p outcome)))

and eval_builtin ftype prev args =
  let p = match prev with None -> 0 | Some prev_v -> Value.to_int prev_v in
  Registry.Commit (Value.int (builtin_result ftype p args))

and apply_outcome t ~chain ~key ~ver record p outcome =
  let final = final_of_outcome outcome in
  let deps = dep_writes_for p outcome in
  List.iter
    (fun (dk, dfinal) -> t.cb.send_dep_write ~key:dk ~version:ver dfinal)
    deps;
  finalize t ~chain ~key ~ver record p final

(* ---- Algorithm 1: Compute ------------------------------------------- *)

and compute_key t ~key ~version =
  match Mvstore.Table.chain t.table key with
  | None -> ()
  | Some chain ->
      let lo = Mvstore.Chain.watermark chain + 1 in
      let pending = ref [] in
      Mvstore.Chain.iter_range chain ~lo ~hi:version (fun ver record ->
          match record.Funct.state with
          | Funct.Final _ -> ()
          | Funct.Pending p -> pending := (ver, record, p) :: !pending);
      List.iter
        (fun (ver, record, p) -> ensure_computing t ~chain ~key ~ver record p)
        (List.rev !pending)

(* ---- planner support: plan nodes ------------------------------------- *)

(* A plan's nodes, as parallel arrays: node [i] is [records.(i)], of key
   [d = node_key.(i)] ([keys.(d)], its chain [chains.(d)]) at version
   [node_ver.(i)], still pending with [pendings.(i)] when the plan was
   built.  Flat arrays of pointers to records the chains hold anyway, so
   a plan allocates nothing per node. *)
type nodes = {
  keys : Key.t array;
  chains : Funct.t Mvstore.Chain.t array;
  node_key : int array;
  node_ver : int array;
  node_op : int array;
  records : Funct.t array;
  pendings : Funct.pending array;
}

(* A plain built-in's operation as one int, [(arg lsl 3) lor code] with
   its [builtin_code], so the real runtime's fold reads neither the
   pending state nor the argument list; 0 for anything else, including
   an argument too wide to shift. *)
let plain_op (p : Funct.pending) =
  match p with
  | { status = Funct.Installed;
      farg =
        { Funct.read_set = []; recipients = []; dependents = [];
          args = Value.Int arg :: _; _ };
      ftype; _ }
    when builtin_code ftype <> 0 && (arg asr 59 = 0 || arg asr 59 = -1) ->
      (arg lsl 3) lor builtin_code ftype
  | _ -> 0

let compute_node t nodes i =
  (* The record may have turned final since the plan was built (an
     on-demand read raced us, or a dependent write resolved it);
     [ensure_computing] re-checks status, so this stays at-most-once. *)
  let record = nodes.records.(i) in
  match record.Funct.state with
  | Funct.Final _ -> ()
  | Funct.Pending p ->
      let d = nodes.node_key.(i) in
      ensure_computing t ~chain:nodes.chains.(d) ~key:nodes.keys.(d)
        ~ver:nodes.node_ver.(i) record p

let merge_delta t ~key ~version =
  (* Fold a fast-path pending delta into its chain: a no-op when the
     record is absent or already final (an on-demand read or an earlier
     merge got there first) — at-most-once either way. *)
  match Mvstore.Table.chain t.table key with
  | None -> ()
  | Some chain -> (
      match Mvstore.Chain.find_exact chain ~version with
      | Some ({ Funct.state = Funct.Pending p; _ } as record) ->
          incr t.m_fastpath_merges;
          ensure_computing t ~chain ~key ~ver:version record p
      | Some { Funct.state = Funct.Final _; _ } | None -> ())

(* ---- real-runtime parallel evaluation (--runtime real) ---------------- *)

(* The planner hands the worker domains one task per key run: a key's
   version-ascending plan nodes at one level, evaluated in order by one
   worker.  Every in-plan read dependency of a run resolves in an earlier
   level (read→write edges weigh one level), and no two runs of a level
   share a key, so each worker domain touches only its own run's chain.
   Built-ins are evaluated only by the fold (below); user functors are
   claimed, their reads staged, evaluated, their records flipped final
   and the watermark advanced.  Everything cross-cutting — recipient
   pushes, dependent writes, waiter continuations, metric counters, key
   interning — is left in the node's [node_op] (a folded built-in) or in
   its slot of the plan's [par_slot] array (a user functor) and applied
   by the orchestrating domain after the batch barrier ([par_commit]),
   which also keeps `Sim.Metrics` and the obs tracer single-domain.

   The three phases split by domain:
   - [par_stage]   user functors only: eligibility + claim + read staging,
                   on the orchestrator before the batch for a node with a
                   read set (the reads walk other keys' chains and push
                   buffers)
   - [par_eval_run] worker domain, one key run: the run's built-ins as one
                   fold; a user functor without a read set staged as
                   above (only its own record is touched); then
                   chain-local work only
   - [par_commit]  main domain, after the barrier: deferred effects

   A built-in the fold refuses (one with recipients, dependents or a read
   set, an argument or result too wide to pack, a pending record below)
   is left to the dispatch, as under `--runtime sim`.  Anything else not
   provably safe (Dep_marker chasing, remote or still-pending reads, a
   missing handler) is never claimed.  Either way the planner's unchanged simulated
   dispatch path evaluates it with the full machinery, and
   [compute_node]'s state re-check keeps the whole arrangement
   at-most-once. *)

type par_user = {
  handler : Registry.handler;
  reads : (string * Value.t option) list; (* staged on the main domain *)
  push_hits : int;
}

(* A node's slot: [Par_free] (never claimed: left to the dispatch, or
   folded: its [node_op] says so), [Par_staged] (a claimed user functor,
   not evaluated) or [Par_done] (an evaluated user functor, with its
   staging's push-buffer hits).  A claim is written before its node is evaluated, so if a
   handler raises, the commit still sees every claimed record and
   releases it, and the run's later nodes stay [Par_free].  The final
   value is the record's; the own-key value below (for recipient pushes)
   is re-read at commit from the now-final chain. *)
type par_slot =
  | Par_free
  | Par_staged of par_user
  | Par_done of Registry.outcome * int

type par_result = Par_untouched | Par_evaluated | Par_released

let par_slots n = Array.make n Par_free

exception Pending_below

(* Value of [chain] at the highest version <= [version] reachable through
   final records only — [get]'s skip-aborted walk, minus the ability to
   wait: raises [Pending_below] when a pending record blocks the walk. *)
let rec final_value_le chain ~version =
  match Mvstore.Chain.find_le chain ~version with
  | None -> None
  | Some (ver, record) -> (
      match record.Funct.state with
      | Funct.Final (Funct.Committed v) -> Some v
      | Funct.Final Funct.Deleted_v -> None
      | Funct.Final Funct.Aborted_v ->
          if ver = 0 then None else final_value_le chain ~version:(ver - 1)
      | Funct.Pending _ -> raise Pending_below)

(* [final_value_le] from the entry at index [i], as a built-in's int
   operand (absent or deleted: 0), walking indices instead of versions:
   the entry below an aborted version [ver] is the latest one <= ver - 1. *)
let rec final_int_at chain i =
  if i < 0 then 0
  else
    match (Mvstore.Chain.payload_at chain i).Funct.state with
    | Funct.Final (Funct.Committed v) -> Value.to_int v
    | Funct.Final Funct.Deleted_v -> 0
    | Funct.Final Funct.Aborted_v ->
        if Mvstore.Chain.version_at chain i = 0 then 0
        else final_int_at chain (i - 1)
    | Funct.Pending _ -> raise Pending_below

(* ---- the fold of plain built-ins ------------------------------------- *)

(* A fold over one key's chain (Algorithm 1's functor-computing loop
   behind the value watermark), for plain built-ins ([plain_op] non-zero)
   taken in version order.  Entry [hi] is the one it finalised last and
   [acc] its value (before the first, -1 and 0: entry 0's operand, as an
   absent key reads 0); entries [lo .. hi] are the stretch of consecutive
   entries it finalised and has not published yet ([hi < lo]: none). *)
type fold = { mutable lo : int; mutable hi : int; mutable acc : int }

let fold_start () = { lo = 0; hi = -1; acc = 0 }

(* Advance the watermark once over the unpublished stretch. *)
let fold_publish chain f =
  if f.hi >= f.lo then begin
    Mvstore.Chain.advance_watermark_over chain ~lo:f.lo ~hi:f.hi
      ~f:Funct.is_final;
    f.lo <- f.hi + 1
  end

(* The fold step: evaluate the still-pending plain built-in [op] whose
   record is chain entry [idx].  Its operand is [f.acc] when [idx] follows
   the entry finalised last, else (the stretch so far published) the
   final value below it, over chain indices.  The result becomes the
   record's shared small-int state and extends the stretch.  Touches no
   record and returns false when a pending record lies below, or when
   the result is too wide to pack as a folded [node_op]. *)
let fold_step chain f ~idx ~op record =
  match
    if idx = f.hi + 1 then f.acc
    else begin
      fold_publish chain f;
      final_int_at chain (idx - 1)
    end
  with
  | exception Pending_below -> false
  | prev ->
      let result = apply_builtin (op land 7) (op asr 3) prev in
      if result asr 59 <> 0 && result asr 59 <> -1 then false
      else begin
        record.Funct.state <- Funct.final_int result;
        if f.hi < f.lo then f.lo <- idx;
        f.hi <- idx;
        f.acc <- result;
        true
      end

(* A folded node's [node_op]: [(result lsl 3) lor tag], the tag telling
   whether the record had waiters, so the commit of a folded node without
   any never touches its pending state: those lie in install order, not
   in the commit's key order, and a read of each is a cache miss per node.
   A folded record is final, so no waiter joins it after the fold.
   [builtin_code]s stay below both tags. *)
let folded_plain = 6
let folded_waiters = 7
let is_folded op = op land 7 >= folded_plain

(* The node the fold step just took, from either caller: stamp an unset
   [retrieved_at_us] with [now], as a claim does, and pack the result. *)
let folded_op f ~now (p : Funct.pending) =
  if p.retrieved_at_us < 0 then p.retrieved_at_us <- now;
  (f.acc lsl 3)
  lor (match p.waiters with [] -> folded_plain | _ -> folded_waiters)

(* Every entry below [idx] is final: those up to the entry the fold
   finalised last are; the ones above it (above the watermark, before the
   fold's first) are checked. *)
let settled_below chain f idx =
  let i =
    ref
      (if f.hi >= 0 then f.hi + 1
       else Mvstore.Chain.rank chain ~version:(Mvstore.Chain.watermark chain) + 1)
  in
  while !i < idx && Funct.is_final (Mvstore.Chain.payload_at chain !i) do
    incr i
  done;
  !i >= idx

let fold_bind chain f ~idx ~now record (p : Funct.pending) =
  let op = plain_op p in
  if op <> 0 && settled_below chain f idx && fold_step chain f ~idx ~op record
  then folded_op f ~now p
  else op

(* Claim [p] for the parallel path.  Mirrors [ensure_computing]'s entry
   bookkeeping so a release (or a raced on-demand read) observes a
   consistent record; workers never touch [status] otherwise. *)
let claim ~now (p : Funct.pending) =
  p.status <- Funct.Computing;
  if p.retrieved_at_us < 0 then p.retrieved_at_us <- now

(* Resolve a user functor's read set: push-buffer hits first, then local
   chains over final records.  [None] when a read is remote or blocked by
   a pending record. *)
let stage_reads t (p : Funct.pending) ~version =
  let push_hits = ref 0 in
  let rec resolve acc = function
    | [] -> Some (List.rev acc)
    | rk :: rest -> (
        match Funct.pushed_value p rk with
        | Some v ->
            incr push_hits;
            resolve ((Key.name rk, v) :: acc) rest
        | None ->
            if not (t.cb.is_local rk) then None
            else (
              match Mvstore.Table.chain t.table rk with
              | None -> resolve ((Key.name rk, None) :: acc) rest
              | Some rchain -> (
                  match final_value_le rchain ~version:(version - 1) with
                  | v -> resolve ((Key.name rk, v) :: acc) rest
                  | exception Pending_below -> None)))
  in
  match resolve [] p.Funct.farg.Funct.read_set with
  | None -> None
  | Some reads -> Some (reads, !push_hits)

let par_stage t ~now slots k nodes i =
  match nodes.records.(i).Funct.state with
  | Funct.Pending ({ status = Funct.Installed; ftype = Ftype.User name; _ } as p)
    -> (
      match Registry.find t.registry name with
      | None -> () (* the dispatch counts m_missing_handler *)
      | Some handler -> (
          match stage_reads t p ~version:nodes.node_ver.(i) with
          | None -> ()
          | Some (reads, push_hits) ->
              claim ~now p;
              slots.(k) <- Par_staged { handler; reads; push_hits }))
  | Funct.Pending _ | Funct.Final _ ->
      (* Raced to final (the dispatch job no-ops), claimed already, a
         built-in (its run folds it or leaves it to the dispatch) or a
         Dep_marker, whose resolution may chase remote determinate
         functors: the sequential machinery's. *)
      ()

(* A staged user functor.  It reads through its read set, so the own-key
   walk only checks that nothing below it is pending; if something is,
   the slot stays [Par_staged] for the commit to release.  An exception
   other than [Not_found] / [Invalid_argument] from the handler
   propagates, leaving the slot [Par_staged]. *)
let eval_user_slot slots k ~chain ~key ~ver record (p : Funct.pending) u =
  match final_value_le chain ~version:(ver - 1) with
  | exception Pending_below -> ()
  | _prev ->
      let outcome = run_handler u.handler ~key ~ver u.reads p in
      record.Funct.state <- Funct.final_state (final_of_outcome outcome);
      refresh_watermark chain;
      slots.(k) <- Par_done (outcome, u.push_hits)

(* A key run, in version order.  A plain built-in ([node_op] non-zero)
   takes the fold step, which touches only its record; the step leaves
   the node's folded [node_op], as the bind pass does.  Its chain index
   is the entry after the one the fold finalised last when that entry
   holds its version, else a [rank].  Every other node is taken after
   the stretch before it is published, so a raising handler finds the
   watermark where the per-node path would have left it: a built-in the
   step refuses, or that is not plain, is left to the dispatch; a user
   functor is staged (if it has no read set) and evaluated; a raise ends
   the run with its stretch published.  One fold
   record per run; the loop allocates nothing per built-in.  The plain
   built-ins that reach it are those of a key whose bind-pass fold
   stopped: after a user functor, above a pending version, or bound out
   of version order, as 27% of YCSB's nodes are under the real
   runtime. *)
let par_eval_run t ~now slots nodes seg ~pos ~len =
  let d = nodes.node_key.(seg.(pos)) in
  let chain = nodes.chains.(d) in
  let f = fold_start () in
  match
    for k = pos to pos + len - 1 do
      let i = seg.(k) in
      let record = nodes.records.(i) and op = nodes.node_op.(i) in
      match record.Funct.state with
      | Funct.Final _ -> () (* raced to final; the dispatch job no-ops *)
      | Funct.Pending p ->
          let ver = nodes.node_ver.(i) in
          let folded =
            op <> 0
            &&
            let next = f.hi + 1 in
            let idx =
              if
                next < Mvstore.Chain.length chain
                && Mvstore.Chain.version_at chain next = ver
              then next
              else Mvstore.Chain.rank chain ~version:ver
            in
            fold_step chain f ~idx ~op record
          in
          if folded then nodes.node_op.(i) <- folded_op f ~now p
          else begin
            fold_publish chain f;
            if builtin_code p.ftype = 0 then begin
              if p.farg.Funct.read_set = [] then par_stage t ~now slots k nodes i;
              match slots.(k) with
              | Par_staged u ->
                  eval_user_slot slots k ~chain ~key:nodes.keys.(d) ~ver record
                    p u
              | Par_free | Par_done _ -> ()
            end
          end
    done
  with
  | () -> fold_publish chain f
  | exception e ->
      fold_publish chain f;
      raise e

let has_waiters (p : Funct.pending) =
  match p.Funct.waiters with [] -> false | _ :: _ -> true

let par_commit t slots k nodes i =
  let p = nodes.pendings.(i) in
  let d = nodes.node_key.(i) in
  let key = nodes.keys.(d) and ver = nodes.node_ver.(i) in
  let op = nodes.node_op.(i) in
  if is_folded op then begin
    (* Folded by either caller: its result and waiter tag are in [op]. *)
    let final =
      match Funct.final_int (op asr 3) with
      | Funct.Final final -> final
      | Funct.Pending _ -> assert false
    in
    finish t ~key ~ver p final ~waiters:(op land 7 = folded_waiters);
    Par_evaluated
  end
  else
    match slots.(k) with
    | Par_free -> Par_untouched
    | Par_staged _ ->
        (* Undo the claim; the simulated dispatch job re-runs
           [ensure_computing] with the full waiting machinery. *)
        p.Funct.status <- Funct.Installed;
        Par_released
    | Par_done (outcome, push_hits) ->
        let final =
          match nodes.records.(i).Funct.state with
          | Funct.Final final -> final
          | Funct.Pending _ -> assert false (* eval_user_slot flipped it *)
        in
        if push_hits > 0 then t.m_push_hits := !(t.m_push_hits) + push_hits;
        (match p.Funct.farg.Funct.recipients with
        | [] -> ()
        | recipients ->
            (* Every record below [ver] was final when the worker read it and
               stays final, so this re-read sees the same value. *)
            send_pushes t ~key ~ver recipients
              (final_value_le nodes.chains.(d) ~version:(ver - 1)));
        List.iter
          (fun (dk, dfinal) -> t.cb.send_dep_write ~key:dk ~version:ver dfinal)
          (dep_writes_for p outcome);
        finish t ~key ~ver p final ~waiters:(has_waiters p);
        Par_evaluated

(* ---- deliveries from the network ------------------------------------ *)

let deliver_push t ~key ~version ~src_key value =
  let orphan () = incr t.m_push_orphan in
  match Mvstore.Table.chain t.table key with
  | None -> orphan ()
  | Some chain -> (
      match Mvstore.Chain.find_le chain ~version with
      | Some (ver, record) when ver = version -> (
          match record.Funct.state with
          | Funct.Pending p -> Funct.add_push p ~key:src_key value
          | Funct.Final _ -> incr t.m_push_late)
      | Some _ | None -> orphan ())

let deliver_dep_write t ~key ~version ~final =
  let chain = Mvstore.Table.chain_of t.table key in
  match Mvstore.Chain.find_le chain ~version with
  | Some (ver, record) when ver = version -> (
      match record.Funct.state with
      | Funct.Pending p ->
          incr t.m_dep_writes_resolved;
          finalize t ~chain ~key ~ver record p final
      | Funct.Final _ -> incr t.m_dep_write_duplicate)
  | Some _ | None ->
      (* No marker installed: store the deferred write directly (covers
         workloads that skip markers for keys never read before the
         determinate functor's watermark advances). *)
      incr t.m_dep_write_direct;
      (match Mvstore.Chain.insert chain ~version (Funct.mk_final final) with
      | Ok () -> ()
      | Error `Duplicate -> ());
      refresh_watermark chain

let abort_version t ~key ~version =
  match Mvstore.Table.chain t.table key with
  | None -> ()
  | Some chain -> (
      match Mvstore.Chain.find_le chain ~version with
      | Some (ver, record) when ver = version -> (
          match record.Funct.state with
          | Funct.Pending p ->
              incr t.m_aborted_in_epoch;
              finalize t ~chain ~key ~ver record p Funct.Aborted_v
          | Funct.Final _ ->
              (* Blind VALUE/DELETE writes are installed already-final; the
                 second-round rollback must erase them too.  Safe because
                 in-epoch versions are invisible to reads until the epoch
                 closes (§III-D). *)
              incr t.m_aborted_in_epoch;
              record.Funct.state <- Funct.final_state Funct.Aborted_v)
      | Some _ | None -> ())

(* The version a read at or above [horizon] (at most the watermark) lands
   on: the newest committed or deleted record at or below it, since reads
   skip an aborted one.  When every such record is aborted, nothing below
   the horizon is ever read. *)
let gc_base chain ~horizon =
  let rec go i =
    if i < 0 then horizon
    else
      match (Mvstore.Chain.payload_at chain i).Funct.state with
      | Funct.Final Funct.Aborted_v -> go (i - 1)
      | Funct.Final (Funct.Committed _ | Funct.Deleted_v) | Funct.Pending _ ->
          Mvstore.Chain.version_at chain i
  in
  go (Mvstore.Chain.rank chain ~version:horizon)

let gc t ~before =
  Mvstore.Table.fold_chains t.table ~init:0 ~f:(fun _key chain acc ->
      let horizon = min before (Mvstore.Chain.watermark chain) in
      if horizon <= 0 then acc
      else
        acc
        + Mvstore.Chain.truncate_below chain
            ~version:(gc_base chain ~horizon))

let pending_count t =
  Mvstore.Table.fold_chains t.table ~init:0 ~f:(fun _key chain acc ->
      Mvstore.Chain.fold chain ~init:acc ~f:(fun acc _ record ->
          if Funct.is_final record then acc else acc + 1))
