type entry = Message.log_entry =
  | Log_install of {
      key : Mvstore.Key.t;
      version : int;
      spec : Message.fspec;
      txn_id : int;
      coordinator : int;
      epoch : int;
      fast : bool;
          (* installed by the coordination-free fast path: on replay the
             entry re-enters the lazy-merge buffer, not an epoch batch *)
    }
  | Log_abort of { key : Mvstore.Key.t; version : int }
  | Log_epoch_closed of int

(* The log is one append-only growable array, oldest first: slots
   [0, durable) have reached the device and [durable, len) are buffered.
   A flush is [durable <- len] and a crash is [len <- durable], so the
   per-flush, per-ack and per-ship work is proportional to the fresh
   entries, never to the log; only [durable] and [all] (recovery and
   promotion) walk the whole log. *)
type t = {
  sim : Sim.Engine.t;
  flush_latency_us : int;
  mutable log : entry array;
  mutable len : int;
  mutable durable : int;
  mutable flush_scheduled : bool;
  mutable waiters : (unit -> unit) list;  (* newest first *)
  mutable generation : int;  (* bumped by lose_unflushed (crash) *)
  mutable on_flush : (unit -> unit) option;
      (* replication ship hook: fired after each flush completion, once
         the newly durable entries are visible through [durable] *)
}

(* Fills spare and vacated slots so they pin no dropped entry. *)
let filler = Log_epoch_closed 0

let create sim ?(flush_latency_us = 500) () =
  { sim; flush_latency_us; log = [||]; len = 0; durable = 0;
    flush_scheduled = false; waiters = []; generation = 0;
    on_flush = None }

let set_on_flush t f = t.on_flush <- Some f

let run_waiters t =
  let ws = t.waiters in
  t.waiters <- [];
  List.iter (fun k -> k ()) (List.rev ws)

let rec schedule_flush t =
  if not t.flush_scheduled then begin
    t.flush_scheduled <- true;
    let gen = t.generation in
    Sim.Engine.after t.sim t.flush_latency_us (fun () ->
        (* A crash between schedule and completion voids this flush: the
           buffered tail it would have covered is gone. *)
        if gen = t.generation then begin
          t.flush_scheduled <- false;
          (* Everything buffered when the flush started — and anything
             added while it ran — reaches the device in order. *)
          t.durable <- t.len;
          (match t.on_flush with Some f -> f () | None -> ());
          run_waiters t;
          if t.len > t.durable then schedule_flush t
        end)
  end

let append t entry =
  let capacity = Array.length t.log in
  if t.len = capacity then begin
    let log = Array.make (max 16 (2 * capacity)) filler in
    Array.blit t.log 0 log 0 t.len;
    t.log <- log
  end;
  t.log.(t.len) <- entry;
  t.len <- t.len + 1;
  schedule_flush t

let after_durable t k =
  if t.len = t.durable && not t.flush_scheduled then k ()
  else begin
    t.waiters <- k :: t.waiters;
    schedule_flush t
  end

let lose_unflushed t =
  t.generation <- t.generation + 1;
  t.flush_scheduled <- false;
  let lost = t.len - t.durable in
  Array.fill t.log t.durable lost filler;
  t.len <- t.durable;
  (* Waiters were acks for entries that never reached the device; the
     crash loses them along with the entries. *)
  t.waiters <- [];
  lost

(* Slots [0, hi) as a list, oldest first. *)
let prefix t hi =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.log.(i) :: acc) in
  go (hi - 1) []

let durable t = prefix t t.durable
let all t = prefix t t.len
let durable_count t = t.durable
let pending_count t = t.len - t.durable

(* Nominal on-device entry sizes: a functor install carries the spec
   (key, args, txn identity); aborts and epoch markers are headers. *)
let entry_bytes = function
  | Log_install _ -> 64
  | Log_abort _ -> 24
  | Log_epoch_closed _ -> 16

let pending_bytes t =
  let acc = ref 0 in
  for i = t.durable to t.len - 1 do
    acc := !acc + entry_bytes t.log.(i)
  done;
  !acc

(* Durable entries with 1-based positions in (from, upto], oldest first:
   the retransmission window a replication primary re-ships.  Position
   [i] lives in slot [i - 1]. *)
let durable_range t ~from ~upto =
  let lo = max from 0 and hi = min upto t.durable in
  let rec go i acc =
    if i <= lo then acc else go (i - 1) ((i, t.log.(i - 1)) :: acc)
  in
  go hi []
