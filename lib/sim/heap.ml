(* Array-based binary min-heap.  The comparison key is (priority, seq):
   [seq] is a monotonically increasing insertion counter that breaks ties,
   giving FIFO order for events scheduled at the same simulated instant.
   Slots at and past [size] hold [vacant], an entry carrying the caller's
   placeholder value, so a popped entry's value (an event closure, for the
   simulator's agenda) is garbage as soon as it fires, not when a later
   [add] happens to overwrite its slot. *)

type 'a entry = { prio : int; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  vacant : 'a entry;
}

let create ~vacant () =
  { data = [||]; size = 0; next_seq = 0;
    vacant = { prio = 0; seq = 0; value = vacant } }

let is_empty t = t.size = 0

let entry_lt a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow t =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let new_capacity = if capacity = 0 then 64 else capacity * 2 in
    let data = Array.make new_capacity t.vacant in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_lt t.data.(i) t.data.(parent) then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 in
  if left < t.size then begin
    let right = left + 1 in
    let smallest =
      if right < t.size && entry_lt t.data.(right) t.data.(left) then right
      else left
    in
    if entry_lt t.data.(smallest) t.data.(i) then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(smallest);
      t.data.(smallest) <- tmp;
      sift_down t smallest
    end
  end

let add t ~priority value =
  let e = { prio = priority; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  grow t;
  t.data.(t.size) <- e;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* The event loop's accessors: they allocate nothing. *)
let min_priority t =
  if t.size = 0 then invalid_arg "Heap.min_priority: empty heap";
  t.data.(0).prio

let pop_min t =
  if t.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let top = t.data.(0) in
  t.size <- t.size - 1;
  t.data.(0) <- t.data.(t.size);
  t.data.(t.size) <- t.vacant;
  if t.size > 0 then sift_down t 0;
  top.value
