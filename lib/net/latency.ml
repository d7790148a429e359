type t = Constant of int | Uniform of { base : int; jitter : int }

let constant us =
  if us < 0 then invalid_arg "Latency.constant: negative";
  Constant us

let lan = Uniform { base = 80; jitter = 40 }

let sample t rng =
  match t with
  | Constant us -> us
  | Uniform { base; jitter } -> base + Sim.Rng.int rng (jitter + 1)

let local_delivery = 1
