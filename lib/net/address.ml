type t = int

let of_int i =
  if i < 0 then invalid_arg "Address.of_int: negative id";
  i

let to_int t = t
let equal = Int.equal
let compare = Int.compare
let hash t = t
let pp fmt t = Format.fprintf fmt "node-%d" t

module Set = Set.Make (Int)
