type t =
  | Constant of int
  | Uniform of { base : int; jitter : int }
  | Exponential_tail of { base : int; mean_tail : float }
  | Spiky of { normal : t; spike : t; spike_probability : float }

let constant us =
  if us < 0 then invalid_arg "Latency.constant: negative";
  Constant us

let uniform ~base ~jitter =
  if base < 0 || jitter < 0 then invalid_arg "Latency.uniform: negative";
  Uniform { base; jitter }

let lan = uniform ~base:80 ~jitter:40

let exponential_tail ~base ~mean_tail =
  if base < 0 || mean_tail < 0.0 then
    invalid_arg "Latency.exponential_tail: negative";
  Exponential_tail { base; mean_tail }

let spiky ~normal ~spike ~spike_probability =
  if spike_probability < 0.0 || spike_probability > 1.0 then
    invalid_arg "Latency.spiky: probability out of range";
  Spiky { normal; spike; spike_probability }

let rec sample t rng =
  match t with
  | Constant us -> us
  | Uniform { base; jitter } ->
      if jitter = 0 then base else base + Sim.Rng.int rng (jitter + 1)
  | Exponential_tail { base; mean_tail } ->
      base + int_of_float (Sim.Rng.exponential rng ~mean:mean_tail)
  | Spiky { normal; spike; spike_probability } ->
      if Sim.Rng.bernoulli rng spike_probability then sample spike rng
      else sample normal rng

let local_delivery = 1
