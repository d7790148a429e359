type member = {
  id : int;
  mutable acked : int;   (* cumulative: entries [1..acked] durable there *)
  mutable live : bool;
}

type t = {
  term : int;
  primary : int;
  members : member array;  (* every replica, primary included *)
  mutable len : int;  (* entries appended to the primary's log *)
  mutable barriers : (int * int) list;  (* (epoch, seq), newest first *)
  mutable durable_epoch : int;
  mutable seq_waiters : (int * (unit -> unit)) list;  (* newest first *)
  mutable epoch_waiters : (int * (unit -> unit)) list;  (* newest first *)
}

let create ~term ~primary ~members ~len =
  if not (List.mem primary members) then
    invalid_arg "Repl.create: primary not in members";
  { term; primary;
    members =
      Array.of_list
        (List.map (fun id -> { id; acked = 0; live = true }) members);
    len; barriers = []; durable_epoch = 0; seq_waiters = [];
    epoch_waiters = [] }

let term t = t.term
let len t = t.len

let follower t m = m.id <> t.primary

let find_member t id =
  match Array.find_opt (fun m -> m.id = id) t.members with
  | Some m -> m
  | None -> invalid_arg "Repl: not a group member"

(* The gating floor: min cumulative ack over live followers, or the
   whole log when no follower is live (degraded single-copy mode). *)
let floor_ t =
  let fl = ref max_int in
  Array.iter
    (fun m -> if follower t m && m.live then fl := min !fl m.acked)
    t.members;
  if !fl = max_int then t.len else !fl

let durable_epoch t = t.durable_epoch
let replica_lag t = max 0 (t.len - floor_ t)

let has_live_follower t =
  Array.exists (fun m -> follower t m && m.live) t.members

let lagging_followers t ~seq =
  Array.to_list t.members
  |> List.filter_map (fun m ->
         if follower t m && m.live && m.acked < seq then Some (m.id, m.acked)
         else None)

let live_followers t = List.map fst (lagging_followers t ~seq:max_int)

(* Fire every waiter the current floor satisfies.  Waiters may append or
   ack reentrantly, so take-then-fire and loop until a fixed point. *)
let rec fire_ready t =
  let fl = floor_ t in
  (* advance the durable epoch to the highest barrier the floor covers *)
  List.iter
    (fun (epoch, seq) ->
      if seq <= fl && epoch > t.durable_epoch then t.durable_epoch <- epoch)
    t.barriers;
  (* a barrier at or below the durable epoch can never raise it again *)
  if List.exists (fun (epoch, _) -> epoch <= t.durable_epoch) t.barriers then
    t.barriers <-
      List.filter (fun (epoch, _) -> epoch > t.durable_epoch) t.barriers;
  let ready_seq, rest_seq =
    List.partition (fun (seq, _) -> seq <= fl) t.seq_waiters
  in
  let ready_epoch, rest_epoch =
    List.partition (fun (e, _) -> e <= t.durable_epoch) t.epoch_waiters
  in
  t.seq_waiters <- rest_seq;
  t.epoch_waiters <- rest_epoch;
  if ready_seq <> [] || ready_epoch <> [] then begin
    (* registration order = reverse of the newest-first lists; within a
       batch, sequence gates (install acks) before epoch gates (closes) *)
    List.iter (fun (_, k) -> k ()) (List.rev ready_seq);
    List.iter (fun (_, k) -> k ()) (List.rev ready_epoch);
    fire_ready t
  end

let append t =
  t.len <- t.len + 1;
  (* with zero live followers the floor moves with the log *)
  if not (has_live_follower t) then fire_ready t;
  t.len

let ack t ~member ~seq =
  let m = find_member t member in
  if follower t m && seq > m.acked then begin
    (* a follower log is always a prefix of the primary's durable log;
       an ack beyond our own length is a protocol violation *)
    if seq > t.len then invalid_arg "Repl.ack: beyond log length";
    m.acked <- seq;
    fire_ready t
  end

let member_down t ~id =
  let m = find_member t id in
  if m.live then begin
    m.live <- false;
    (* the floor ignores dead followers from now on: it can only rise *)
    fire_ready t
  end

let member_rejoin t ~id =
  let m = find_member t id in
  (* the floor for new gates drops to 0; gates already fired stay fired,
     their epochs durable on the surviving replicas *)
  m.acked <- 0;
  m.live <- true

let close_epoch t ~epoch =
  t.barriers <- (epoch, t.len) :: t.barriers;
  fire_ready t

let when_seq_acked t ~seq k =
  if floor_ t >= seq then k ()
  else t.seq_waiters <- (seq, k) :: t.seq_waiters

let when_epoch_durable t ~epoch k =
  if t.durable_epoch >= epoch then k ()
  else t.epoch_waiters <- (epoch, k) :: t.epoch_waiters

let crash t ~durable_len =
  (* Barriers in the lost tail belong to epochs that never closed; acks
     come back with the re-ship; the gates' replies died with us. *)
  if durable_len > t.len then invalid_arg "Repl.crash: durable beyond log";
  t.len <- durable_len;
  t.barriers <- List.filter (fun (_, seq) -> seq <= durable_len) t.barriers;
  Array.iter (fun m -> if follower t m then m.acked <- 0) t.members;
  t.seq_waiters <- [];
  t.epoch_waiters <- []

let acked t ~member = (find_member t member).acked
