(* Open addressing over key ids: [ids] holds a key id or -1 per slot and
   is an int array, so the GC never scans it; [chains] holds the matching
   chain (or [empty], a placeholder never handed out) at the same index.
   Probing is linear from the mixed id, and the table grows x2 once more
   than 4/5 of its slots are taken.  Iteration walks the slots, so its
   order is slot order, not insertion order. *)
type 'a t = {
  mutable ids : int array;
  mutable chains : 'a Chain.t array;
  mutable count : int;
  empty : 'a Chain.t;
}

type put_error = [ `Duplicate_version | `Version_out_of_window ]

(* Start small: recovery replicas, tests and benchmarks create many
   short-lived tables. *)
let create () =
  let empty = Chain.create () in
  { ids = Array.make 8 (-1); chains = Array.make 8 empty; count = 0; empty }

(* Index of [id]'s slot, or of the empty slot where it belongs.  Key ids
   are dense per process, and a partition holds a patterned subset of
   them; mixing keeps a stride in the ids from piling keys into one run
   of slots.  [go] allocates a closure per lookup, on purpose: a
   closure-free probe raised stpcc-neworder's [peak_rss_mb] from about
   296 to 310 MB through GC pacing (DESIGN.md section 8). *)
let slot ids id =
  let mask = Array.length ids - 1 in
  let rec go i =
    let x = Array.unsafe_get ids i in
    if x = id || x < 0 then i else go ((i + 1) land mask)
  in
  go (Sim.Bits.mix id land mask)

let grow t =
  let ids = t.ids and chains = t.chains in
  let n = 2 * Array.length ids in
  let ids' = Array.make n (-1) and chains' = Array.make n t.empty in
  Array.iteri
    (fun i id ->
      if id >= 0 then begin
        let j = slot ids' id in
        ids'.(j) <- id;
        chains'.(j) <- chains.(i)
      end)
    ids;
  t.ids <- ids';
  t.chains <- chains'

let chain_of t key =
  let id = Key.id key in
  let i = slot t.ids id in
  if t.ids.(i) = id then t.chains.(i)
  else begin
    let c = Chain.create () in
    t.ids.(i) <- id;
    t.chains.(i) <- c;
    t.count <- t.count + 1;
    if 5 * t.count > 4 * Array.length t.ids then grow t;
    c
  end

let put_unchecked t ~key ~version payload =
  match Chain.insert (chain_of t key) ~version payload with
  | Ok () -> Ok ()
  | Error `Duplicate -> Error `Duplicate_version

let put t ~key ~version ~lo ~hi payload =
  if version < lo || version > hi then Error `Version_out_of_window
  else put_unchecked t ~key ~version payload

let chain t key =
  let id = Key.id key in
  let i = slot t.ids id in
  if t.ids.(i) = id then Some t.chains.(i) else None

let find_le t ~key ~version =
  match chain t key with
  | None -> None
  | Some c -> Chain.find_le c ~version

(* Captures the arrays, so a [chain_of] from [f] that grows the table
   cannot disturb the walk. *)
let fold_chains t ~init ~f =
  let ids = t.ids and chains = t.chains in
  let acc = ref init in
  for i = 0 to Array.length ids - 1 do
    let id = Array.unsafe_get ids i in
    if id >= 0 then acc := f (Key.of_id id) chains.(i) !acc
  done;
  !acc
