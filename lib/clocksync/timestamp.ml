type t = int

let node_bits = 10
let seq_bits = 12

let node_mask = (1 lsl node_bits) - 1
let seq_mask = (1 lsl seq_bits) - 1
let shift = node_bits + seq_bits

let make ~time_us ~node ~seq =
  if time_us < 0 then invalid_arg "Timestamp.make: negative time";
  if node < 0 || node > node_mask then invalid_arg "Timestamp.make: node";
  if seq < 0 || seq > seq_mask then invalid_arg "Timestamp.make: seq";
  (time_us lsl shift) lor (node lsl seq_bits) lor seq

let zero = 0

let infinity = max_int

let of_int i =
  if i < 0 then invalid_arg "Timestamp.of_int: negative";
  i

let to_int t = t
let time_us t = t lsr shift
let node t = (t lsr seq_bits) land node_mask
let seq t = t land seq_mask

let window_lo ~time_us = make ~time_us ~node:0 ~seq:0

let window_hi ~time_us = make ~time_us ~node:node_mask ~seq:seq_mask

let ( < ) a b = Stdlib.( < ) a b

let pp fmt t =
  Format.fprintf fmt "%d.%03d@n%d" (time_us t) (seq t) (node t)
