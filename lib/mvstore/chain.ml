(* Versions and payloads live in parallel arrays: [vers] is an int array,
   which the GC never scans, so a version costs one word of it and one
   payload slot, not a record of its own.  Slots at and past [size] hold
   no live data: [vers] keeps stale ints and [payloads] a payload that is
   also stored below [size]. *)
type 'a t = {
  mutable vers : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable watermark : int;
  (* Index of the entry holding [watermark], or -1 when unknown.  A cache,
     not an invariant: validated against [vers] before every use and
     rebuilt with a rank search on mismatch.  Sequential compute probes
     the chain at exactly the watermark (previous value of the next
     functor, base of the watermark walk), so this turns the two hottest
     rank searches into array hits. *)
  mutable wm_idx : int;
}

let create () =
  { vers = [||]; payloads = [||]; size = 0; watermark = -1; wm_idx = -1 }

let wm_idx_valid t =
  t.wm_idx >= 0 && t.wm_idx < t.size && t.vers.(t.wm_idx) = t.watermark

let length t = t.size

(* Index of the last entry with version <= v, or -1.  The two O(1) guards
   cover the dominant access patterns: reads at or above the latest
   version, and probes below the chain's base. *)
let rank_le t v =
  if t.size = 0 || t.vers.(0) > v then -1
  else if t.vers.(t.size - 1) <= v then t.size - 1
  else if v = t.watermark && wm_idx_valid t then t.wm_idx
  else begin
    let lo = ref 0 and hi = ref (t.size - 1) and ans = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if t.vers.(mid) <= v then begin
        ans := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    !ans
  end

(* Make room for one more entry; capacity grows 1, 2, 4, ...  [payload],
   the entry about to be stored, fills the new payload slots. *)
let grow t payload =
  let capacity = Array.length t.vers in
  if t.size = capacity then begin
    let new_capacity = if capacity = 0 then 1 else capacity * 2 in
    let vers = Array.make new_capacity 0 in
    Array.blit t.vers 0 vers 0 t.size;
    let payloads = Array.make new_capacity payload in
    Array.blit t.payloads 0 payloads 0 t.size;
    t.vers <- vers;
    t.payloads <- payloads
  end

let insert t ~version payload =
  (* Appending is the common case — versions arrive mostly in order — and
     needs no rank search and no shift. *)
  let pos =
    if t.size = 0 || t.vers.(t.size - 1) < version then t.size - 1
    else rank_le t version
  in
  if pos >= 0 && t.vers.(pos) = version then Error `Duplicate
  else begin
    grow t payload;
    (* Shift the suffix right by one to make room at pos+1. *)
    let insert_at = pos + 1 in
    let tail = t.size - insert_at in
    if tail > 0 then begin
      Array.blit t.vers insert_at t.vers (insert_at + 1) tail;
      Array.blit t.payloads insert_at t.payloads (insert_at + 1) tail
    end;
    t.vers.(insert_at) <- version;
    t.payloads.(insert_at) <- payload;
    t.size <- t.size + 1;
    if insert_at <= t.wm_idx then t.wm_idx <- t.wm_idx + 1;
    Ok ()
  end

let find_le t ~version =
  let pos = rank_le t version in
  if pos < 0 then None else Some (t.vers.(pos), t.payloads.(pos))

let rank t ~version = rank_le t version

let check_index t i =
  if i < 0 || i >= t.size then invalid_arg "Chain: index out of range"

let version_at t i =
  check_index t i;
  Array.unsafe_get t.vers i

let payload_at t i =
  check_index t i;
  Array.unsafe_get t.payloads i

let find_exact t ~version =
  let pos = rank_le t version in
  if pos >= 0 && t.vers.(pos) = version then Some t.payloads.(pos) else None

let watermark t = t.watermark

let advance_watermark_while t ~f =
  let i = ref ((if wm_idx_valid t then t.wm_idx else rank_le t t.watermark) + 1)
  in
  let stop = ref false in
  while (not !stop) && !i < t.size do
    if f t.payloads.(!i) then begin
      t.watermark <- t.vers.(!i);
      t.wm_idx <- !i;
      incr i
    end
    else stop := true
  done

let advance_watermark_over t ~lo ~hi ~f =
  if lo < 0 || lo > hi || hi >= t.size then
    invalid_arg "Chain.advance_watermark_over";
  let w = if wm_idx_valid t then t.wm_idx else rank_le t t.watermark in
  let i = ref (w + 1) in
  while !i < lo && f t.payloads.(!i) do
    incr i
  done;
  let top = if !i >= lo then hi else !i - 1 in
  if top > w then begin
    t.watermark <- t.vers.(top);
    t.wm_idx <- top
  end;
  if !i >= lo then advance_watermark_while t ~f

let iter_range t ~lo ~hi f =
  let start = rank_le t (lo - 1) + 1 in
  let rec go i =
    if i < t.size && t.vers.(i) <= hi then begin
      f t.vers.(i) t.payloads.(i);
      go (i + 1)
    end
  in
  go start

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.vers.(i) t.payloads.(i)
  done;
  !acc

let truncate_below t ~version =
  (* Keep everything from the latest record <= version onwards. *)
  let base = rank_le t version in
  let drop = if base <= 0 then 0 else base in
  if drop = 0 then 0
  else begin
    let size = t.size - drop in
    Array.blit t.vers drop t.vers 0 size;
    Array.blit t.payloads drop t.payloads 0 size;
    (* Point the vacated tail at the kept base so no slot past [size]
       still pins a truncated payload. *)
    Array.fill t.payloads size drop t.payloads.(0);
    t.size <- size;
    t.wm_idx <- (if t.wm_idx >= drop then t.wm_idx - drop else -1);
    drop
  end
