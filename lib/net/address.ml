type t = int

let of_int i =
  if i < 0 then invalid_arg "Address.of_int: negative id";
  i

let to_int t = t
let equal = Int.equal

module Set = Set.Make (Int)
