(* SplitMix64 (Steele, Lea, Flood 2014).  Small state, good statistical
   quality for simulation purposes, and trivially splittable. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = int64 t in
  { state = mix s }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Take the top bits (better distributed in SplitMix64 output) and reduce
     modulo the bound.  The modulo bias is negligible for the bounds used in
     this codebase (bound << 2^62). *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  (* 53 random bits mapped to [0,1). *)
  v /. 9007199254740992.0 *. bound

let bool t = Int64.compare (Int64.logand (int64 t) 1L) 0L <> 0

let bernoulli t p = float t 1.0 < p

let uniform_int t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.uniform_int: hi < lo";
  lo + int t (hi - lo + 1)

let exponential t ~mean =
  let u = float t 1.0 in
  (* Avoid log 0. *)
  let u = if u <= 0.0 then 1e-300 else u in
  -.mean *. log u

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
