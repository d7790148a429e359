module Histogram = struct
  (* Log-bucketed histogram: samples are classified by (octave, 4-bit
     mantissa), i.e. 16 sub-buckets per power of two.  Values < 16 get
     exact buckets.  This caps relative error at ~1/16 per bucket, which is
     plenty for latency percentiles. *)

  let sub_bits = 4
  let sub = 1 lsl sub_bits (* 16 *)
  let octaves = 48
  let nbuckets = octaves * sub

  type t = {
    counts : int array;
    mutable count : int;
    mutable total : float;
    mutable min : int;
    mutable max : int;
  }

  let create () =
    { counts = Array.make nbuckets 0; count = 0; total = 0.0;
      min = max_int; max = 0 }

  let bucket_of_value v =
    if v < sub then v
    else begin
      let msb = 62 - Bits.count_leading_zeros v in
      let shift = msb - sub_bits in
      let mantissa = (v lsr shift) land (sub - 1) in
      let idx = ((msb - sub_bits + 1) * sub) + mantissa in
      if idx >= nbuckets then nbuckets - 1 else idx
    end

  (* Representative (lower bound) value for a bucket, used when answering
     percentile queries. *)
  let value_of_bucket i =
    if i < sub then i
    else begin
      let octave = (i / sub) + sub_bits - 1 in
      let mantissa = i land (sub - 1) in
      (1 lsl octave) lor (mantissa lsl (octave - sub_bits))
    end

  let add t v =
    if v < 0 then invalid_arg "Histogram.add: negative sample";
    let b = bucket_of_value v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.count <- t.count + 1;
    t.total <- t.total +. float_of_int v;
    if v < t.min then t.min <- v;
    if v > t.max then t.max <- v

  let count t = t.count

  let mean t = if t.count = 0 then 0.0 else t.total /. float_of_int t.count

  let percentile t p =
    if p <= 0.0 || p > 100.0 then invalid_arg "Histogram.percentile";
    if t.count = 0 then 0
    else begin
      let target =
        let raw = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
        if raw < 1 then 1 else raw
      in
      (* The topmost sample is known exactly; answering p=100 (or any
         query whose rank reaches the last sample) from the bucket lower
         bound would under-report the max. *)
      if target >= t.count then t.max
      else begin
        let rec scan i seen =
          if i >= nbuckets then t.max
          else begin
            let seen = seen + t.counts.(i) in
            if seen >= target then
              (* Clamp to the recorded extremes for exactness at the
                 tails. *)
              let v = value_of_bucket i in
              if v < t.min then t.min else if v > t.max then t.max else v
            else scan (i + 1) seen
          end
        in
        scan 0 0
      end
    end

  let clear t =
    Array.fill t.counts 0 nbuckets 0;
    t.count <- 0;
    t.total <- 0.0;
    t.min <- max_int;
    t.max <- 0
end
