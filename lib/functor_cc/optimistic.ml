let handler_name = "occ_validate"

(* A snapshot entry is (key, observed) where observed is [Tup []] for
   "absent" and [Tup [v]] for "present with value v" — Value.t has no
   option constructor. *)
let encode_entry (key, observed) =
  let payload =
    match observed with
    | None -> Value.tup []
    | Some v -> Value.tup [ v ]
  in
  Value.tup [ Value.str key; payload ]

let decode_entry v =
  let key = Value.to_str (Value.nth v 0) in
  let observed =
    match Value.to_tup (Value.nth v 1) with
    | [] -> None
    | [ x ] -> Some x
    | _ -> invalid_arg "occ_validate: malformed snapshot entry"
  in
  (key, observed)

let encode_snapshot entries = Value.tup (List.map encode_entry entries)

let decode_snapshot v = List.map decode_entry (Value.to_tup v)

let validate (ctx : Registry.ctx) =
  let snapshot = decode_snapshot (Registry.arg ctx 0) in
  let new_value = Registry.arg ctx 1 in
  let unchanged (key, observed) =
    let current = Registry.read ctx key in
    match (observed, current) with
    | None, None -> true
    | Some a, Some b -> Value.equal a b
    | None, Some _ | Some _, None -> false
  in
  if List.for_all unchanged snapshot then Registry.Commit new_value
  else Registry.Abort

let register registry = Registry.register registry handler_name validate
