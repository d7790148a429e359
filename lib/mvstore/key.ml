(* Interned keys: one record per distinct key name for the whole process.
   Chains, functor read sets and network routing all address keys through
   [t], so the hot paths compare and hash dense ints instead of re-hashing
   sprintf-built strings.  The intern table only grows; sequential
   experiment runs reuse the records (and their ids) for recurring key
   names, which is exactly the behaviour a per-run table would give for a
   single run, without threading an interner through every constructor.

   The table is one flat array of records, probed linearly from
   [Hashtbl.hash name] and compared with [String.equal]; empty slots hold
   the shared [vacant] record.  A second array maps id -> record for
   {!of_id}.  Both grow x2 and start small, so a process that interns a
   few dozen keys pays a few hundred bytes.  Against a [Hashtbl] this
   drops one cell (4 words) per key.

   Domain safety (--runtime real): the table is process-global mutable
   state, so [intern] takes a mutex.  The whole lookup is inside the
   critical section — not just the miss path — because a concurrent
   insert can grow the table out from under a lock-free probe.  The lock
   is uncontended in practice (the real runtime's worker domains never
   intern: read sets are staged and dependent keys interned on the
   orchestrating domain), so the cost is a single uncontended
   lock/unlock — a few tens of nanoseconds on the install path, which
   the interning regression test hammers from 4 domains to keep
   honest. *)

type t = {
  id : int;
  name : string;
  mutable memo_stamp : int;
  mutable memo : int;
      (* One generation-stamped memo slot per key.  Holders of a stamp
         (e.g. a cluster's partitioner) can cache an int per key — the
         partition id — without a side table.  Not synchronized: memoize
         from the orchestrating domain only (see [memo_int]). *)
}

let vacant = { id = -1; name = ""; memo_stamp = -1; memo = 0 }
let slots = ref (Array.make 64 vacant) (* length a power of two *)
let by_id = ref (Array.make 64 vacant)
let next_id = ref 0
let lock = Mutex.create ()

(* Index of [name]'s slot, or of the vacant slot where it belongs. *)
let slot slots name =
  let mask = Array.length slots - 1 in
  let rec go i =
    let k = Array.unsafe_get slots i in
    if k == vacant || String.equal k.name name then i
    else go ((i + 1) land mask)
  in
  go (Hashtbl.hash name land mask)

(* Grow x2 once more than 4/5 of the slots are taken: a flat slot costs
   one word, so at a load of 0.4-0.8 a key pays 10-20 bytes here. *)
let grow_slots () =
  let old = !slots in
  let fresh = Array.make (2 * Array.length old) vacant in
  Array.iter (fun k -> if k != vacant then fresh.(slot fresh k.name) <- k) old;
  slots := fresh

let add name i =
  let id = !next_id in
  let k = { id; name; memo_stamp = -1; memo = 0 } in
  !slots.(i) <- k;
  if id = Array.length !by_id then begin
    let fresh = Array.make (2 * id) vacant in
    Array.blit !by_id 0 fresh 0 id;
    by_id := fresh
  end;
  !by_id.(id) <- k;
  next_id := id + 1;
  if 5 * !next_id > 4 * Array.length !slots then grow_slots ();
  k

let intern name =
  Mutex.lock lock;
  let i = slot !slots name in
  let k = !slots.(i) in
  let k = if k == vacant then add name i else k in
  Mutex.unlock lock;
  k

let of_id id =
  if id < 0 || id >= !next_id then invalid_arg "Key.of_id";
  !by_id.(id)

let id k = k.id
let name k = k.name
let equal a b = a.id = b.id

let next_stamp = ref 0

let new_stamp () =
  incr next_stamp;
  !next_stamp

(* Single-domain by design (cluster assembly and message routing run on
   the orchestrating domain).  The write order still matters for crash
   robustness of that assumption: publish the memo value before the
   stamp, so a racing same-stamp reader can never observe the new stamp
   with the old value. *)
let memo_int k ~stamp ~f =
  if k.memo_stamp = stamp then k.memo
  else begin
    let v = f k.name in
    k.memo <- v;
    k.memo_stamp <- stamp;
    v
  end
