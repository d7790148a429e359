type t = { partitions : int }

let by_prefix_int ~partitions =
  if partitions <= 0 then
    invalid_arg "Partitioner: partitions must be positive";
  { partitions }

let fnv1a s =
  (* 64-bit FNV-1a constants, truncated to OCaml's 63-bit native int; the
     final mask keeps the result non-negative. *)
  let offset_basis = 0x4bf29ce484222325 in
  let prime = 0x100000001b3 in
  let h = ref offset_basis in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * prime)
    s;
  !h land max_int

(* Parse the decimal run following the first ':'.  Returns [None] when the
   key has no such prefix (then we fall back to hashing). *)
let prefix_int key =
  match String.index_opt key ':' with
  | None -> None
  | Some i ->
      let n = String.length key in
      let rec scan j acc any =
        if j >= n then if any then Some acc else None
        else
          match key.[j] with
          | '0' .. '9' as c ->
              scan (j + 1) ((acc * 10) + (Char.code c - Char.code '0')) true
          | _ -> if any then Some acc else None
      in
      scan (i + 1) 0 false

let partition_of t key =
  match prefix_int key with
  | Some v -> v mod t.partitions
  | None -> fnv1a key mod t.partitions
