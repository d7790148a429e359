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
  match ftype with
  | Ftype.Add -> p + arg0
  | Ftype.Subtr -> p - arg0
  | Ftype.Max -> if arg0 > p then arg0 else p
  | Ftype.Min -> if arg0 < p then arg0 else p
  | Ftype.Value | Ftype.Aborted | Ftype.Deleted | Ftype.User _
  | Ftype.Dep_marker _ ->
      assert false

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
        let push prev =
          List.iter
            (fun dst_key ->
              incr t.m_pushes_sent;
              t.cb.send_push ~dst_key ~version:ver ~src_key:key prev)
            recipients
        in
        (match prev_opt with
        | Some prev -> push prev
        | None -> get_in t ~chain ~key ~version:(ver - 1) (fun v -> push v))
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
                  let ctx =
                    { Registry.key = Key.name key; version = ver; reads;
                      args = p.farg.Funct.args }
                  in
                  let outcome =
                    try handler ctx
                    with Not_found | Invalid_argument _ ->
                      (* A handler bug is a logic error: abort the txn
                         rather than wedging the engine. *)
                      Registry.Abort
                  in
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

and finalize t ~chain ~key ~ver record p final =
  record.Funct.state <- Funct.final_state final;
  (match final with
  | Funct.Aborted_v -> incr t.m_aborts_computed
  | Funct.Committed _ | Funct.Deleted_v -> ());
  incr t.m_computed;
  refresh_watermark chain;
  t.cb.notify_final ~key ~version:ver ~pending:p ~final;
  let waiters = p.waiters in
  p.waiters <- [];
  List.iter (fun w -> w final) waiters

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

(* ---- planner support: prepared node handles -------------------------- *)

(* A prepared node binds a still-pending record to its chain once, at plan
   construction, so plan evaluation can call [ensure_computing] directly —
   no table probe, no watermark rescan (the O(chain) walk of
   [compute_key]) per evaluation. *)
type prepared = {
  p_key : Key.t;
  p_version : int;
  p_chain : Funct.t Mvstore.Chain.t;
  p_record : Funct.t;
  p_pending : Funct.pending;
}

let prepare_in ~chain ~key ~version =
  match Mvstore.Chain.find_exact chain ~version with
  | None -> None
  | Some record -> (
      match record.Funct.state with
      | Funct.Final _ -> None
      | Funct.Pending p ->
          Some
            { p_key = key; p_version = version; p_chain = chain;
              p_record = record; p_pending = p })

let prepare t ~key ~version =
  match Mvstore.Table.chain t.table key with
  | None -> None
  | Some chain -> prepare_in ~chain ~key ~version

let compute_prepared t pr =
  (* The record may have turned final since the plan was built (an
     on-demand read raced us, or a dependent write resolved it);
     [ensure_computing] re-checks status, so this stays at-most-once. *)
  match pr.p_record.Funct.state with
  | Funct.Final _ -> ()
  | Funct.Pending p ->
      ensure_computing t ~chain:pr.p_chain ~key:pr.p_key ~ver:pr.p_version
        pr.p_record p

let prepared_key pr = pr.p_key
let prepared_version pr = pr.p_version
let prepared_pending pr = pr.p_pending
let prepared_is_final pr = Funct.is_final pr.p_record

let merge_delta t ~key ~version =
  (* Fold a fast-path pending delta into its chain.  [prepare] returns
     [None] when the record is absent or already final (an on-demand read
     or an earlier merge got there first) — at-most-once either way. *)
  match prepare t ~key ~version with
  | None -> ()
  | Some pr ->
      incr t.m_fastpath_merges;
      compute_prepared t pr

(* ---- real-runtime parallel evaluation (--runtime real) ---------------- *)

(* The planner hands the worker domains one task per key run: a key's
   version-ascending plan nodes at one level, evaluated in order by one
   worker.  Every in-plan read dependency of a run resolves in an earlier
   level (read→write edges weigh one level), and no two runs of a level
   share a key, so each worker domain touches only its own run's chain:
   claim the record, resolve the previous own-key value over final
   records, evaluate, flip the record final, advance the watermark.
   Everything cross-cutting — recipient pushes, dependent writes, waiter
   continuations, metric counters, key interning — is left in the node's
   slot of the plan's [par_slot] array and applied by the orchestrating
   domain after the batch barrier ([par_commit]), which also keeps
   `Sim.Metrics` and the obs tracer single-domain.

   The three phases split by domain:
   - [par_stage]   eligibility + claim + read staging, on the orchestrator
                   before the batch, for a node with a read set (the
                   reads walk other keys' chains and push buffers)
   - [par_eval]    worker domain: the same staging for a node without a
                   read set (only its own record is touched), then
                   chain-local work only
   - [par_commit]  main domain, after the barrier: deferred effects

   A built-in without recipients and dependents allocates nothing on the
   worker: its operand is read over chain indices and its result is
   written as the shared small-int state.

   Anything not provably safe (Dep_marker chasing, remote or
   still-pending reads, a missing handler) is never claimed: the
   planner's unchanged simulated dispatch path evaluates it with the
   full machinery, and [compute_prepared]'s state re-check keeps the
   whole arrangement at-most-once. *)

type par_user = {
  handler : Registry.handler;
  reads : (string * Value.t option) list; (* staged on the main domain *)
  push_hits : int;
}

(* A node's slot: [Par_free] (never claimed: left to the dispatch),
   [Par_claimed] or [Par_staged] (a claimed built-in or user functor, not
   evaluated), [Par_plain] (an evaluated built-in with no recipients and
   no dependents: its commit has nothing to push or write) or [Par_done]
   (evaluated, with its staging's push-buffer hits).  A claim is written
   before its node is evaluated, so if a handler raises, the commit still
   sees every claimed record and releases it, and the run's later nodes
   stay [Par_free].  The final value is the record's; the own-key value
   below (for recipient pushes) is re-read at commit from the now-final
   chain. *)
type par_slot =
  | Par_free
  | Par_claimed
  | Par_staged of par_user
  | Par_plain
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

let par_stage t ~now slots i pr =
  match pr.p_record.Funct.state with
  | Funct.Final _ -> () (* raced to final; the dispatch job no-ops *)
  | Funct.Pending p -> (
      match p.Funct.status with
      | Funct.Computing -> ()
      | Funct.Installed -> (
          match p.Funct.ftype with
          | Ftype.Value | Ftype.Aborted | Ftype.Deleted -> assert false
          | Ftype.Dep_marker _ ->
              (* Marker resolution may chase remote determinate functors;
                 leave it to the sequential machinery. *)
              ()
          | Ftype.Add | Ftype.Subtr | Ftype.Max | Ftype.Min ->
              claim ~now p;
              slots.(i) <- Par_claimed
          | Ftype.User name -> (
              match Registry.find t.registry name with
              | None -> () (* the dispatch counts m_missing_handler *)
              | Some handler -> (
                  match stage_reads t p ~version:pr.p_version with
                  | None -> ()
                  | Some (reads, push_hits) ->
                      claim ~now p;
                      slots.(i) <- Par_staged { handler; reads; push_hits }))))

(* A claimed built-in.  If the own-key walk finds a pending record, the
   slot stays [Par_claimed] and the record stays pending — the commit
   releases it to the sequential path. *)
let eval_builtin_slot slots i pr (p : Funct.pending) =
  let chain = pr.p_chain in
  match
    final_int_at chain (Mvstore.Chain.rank chain ~version:(pr.p_version - 1))
  with
  | exception Pending_below -> ()
  | prev -> (
      let result = builtin_result p.ftype prev p.farg.Funct.args in
      pr.p_record.Funct.state <- Funct.final_int result;
      refresh_watermark chain;
      match p.farg with
      | { Funct.recipients = []; dependents = []; _ } -> slots.(i) <- Par_plain
      | _ -> slots.(i) <- Par_done (Registry.Commit (Value.int result), 0))

(* A staged user functor, as [eval_builtin_slot]: it reads through its
   read set, so the own-key walk only checks that nothing below it is
   pending.  An exception other than [Not_found] / [Invalid_argument]
   from the handler propagates, leaving the slot [Par_staged]. *)
let eval_user_slot slots i pr (p : Funct.pending) u =
  match final_value_le pr.p_chain ~version:(pr.p_version - 1) with
  | exception Pending_below -> ()
  | _prev ->
      let ctx =
        { Registry.key = Key.name pr.p_key; version = pr.p_version;
          reads = u.reads; args = p.Funct.farg.Funct.args }
      in
      let outcome =
        try u.handler ctx with Not_found | Invalid_argument _ -> Registry.Abort
      in
      pr.p_record.Funct.state <- Funct.final_state (final_of_outcome outcome);
      refresh_watermark pr.p_chain;
      slots.(i) <- Par_done (outcome, u.push_hits)

let par_eval t ~now slots i pr =
  let p = pr.p_pending in
  if p.Funct.farg.Funct.read_set = [] then par_stage t ~now slots i pr;
  match slots.(i) with
  | Par_claimed -> eval_builtin_slot slots i pr p
  | Par_staged u -> eval_user_slot slots i pr p u
  | Par_free | Par_plain | Par_done _ -> ()

(* [finalize] minus the state flip and watermark advance, which the
   worker already did on the record's own chain. *)
let par_finish t pr (p : Funct.pending) final =
  (match final with
  | Funct.Aborted_v -> incr t.m_aborts_computed
  | Funct.Committed _ | Funct.Deleted_v -> ());
  incr t.m_computed;
  t.cb.notify_final ~key:pr.p_key ~version:pr.p_version ~pending:p ~final;
  match p.Funct.waiters with
  | [] -> () (* no closure over [final] to build *)
  | waiters ->
      p.Funct.waiters <- [];
      List.iter (fun w -> w final) waiters

let par_commit t slots i pr =
  let p = pr.p_pending in
  let key = pr.p_key and ver = pr.p_version in
  match (slots.(i), pr.p_record.Funct.state) with
  | Par_free, _ -> Par_untouched
  | (Par_claimed | Par_staged _), _ ->
      (* Undo the claim; the simulated dispatch job re-runs
         [ensure_computing] with the full waiting machinery. *)
      p.Funct.status <- Funct.Installed;
      Par_released
  | (Par_plain | Par_done _), Funct.Pending _ ->
      assert false (* par_eval flipped it *)
  | Par_plain, Funct.Final final ->
      par_finish t pr p final;
      Par_evaluated
  | Par_done (outcome, push_hits), Funct.Final final ->
      if push_hits > 0 then t.m_push_hits := !(t.m_push_hits) + push_hits;
      (match p.Funct.farg.Funct.recipients with
      | [] -> ()
      | recipients ->
          (* Every record below [ver] was final when the worker read it and
             stays final, so this re-read sees the same value. *)
          let prev = final_value_le pr.p_chain ~version:(ver - 1) in
          List.iter
            (fun dst_key ->
              incr t.m_pushes_sent;
              t.cb.send_push ~dst_key ~version:ver ~src_key:key prev)
            recipients);
      List.iter
        (fun (dk, dfinal) -> t.cb.send_dep_write ~key:dk ~version:ver dfinal)
        (dep_writes_for p outcome);
      par_finish t pr p final;
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

let gc t ~before =
  Mvstore.Table.fold_chains t.table ~init:0 ~f:(fun _key chain acc ->
      let horizon = min before (Mvstore.Chain.watermark chain) in
      if horizon <= 0 then acc
      else acc + Mvstore.Chain.truncate_below chain ~version:horizon)

let pending_count t =
  Mvstore.Table.fold_chains t.table ~init:0 ~f:(fun _key chain acc ->
      Mvstore.Chain.fold chain ~init:acc ~f:(fun acc _ record ->
          if Funct.is_final record then acc else acc + 1))
