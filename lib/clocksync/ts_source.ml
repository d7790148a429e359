type t = {
  clock : Node_clock.t;
  node : int;
  mutable last : Timestamp.t;
}

let create clock ~node =
  ignore (Timestamp.make ~time_us:0 ~node ~seq:0);
  (* validates the node id fits the field *)
  { clock; node; last = Timestamp.zero }

let seq_max = (1 lsl Timestamp.seq_bits) - 1

let next t ~lo ~hi =
  if lo > hi then invalid_arg "Ts_source.next: empty window";
  let reading = Node_clock.now t.clock in
  let time_us = if reading < lo then lo else if reading > hi then hi else reading in
  (* Candidate at (time_us, seq 0); bump past the last issued timestamp. *)
  let candidate = Timestamp.make ~time_us ~node:t.node ~seq:0 in
  let candidate =
    if Timestamp.( < ) t.last candidate then candidate
    else begin
      (* Same or earlier microsecond: continue the sequence, rolling over to
         the next microsecond when the 12-bit space is exhausted. *)
      let lt = Timestamp.time_us t.last in
      let ls = Timestamp.seq t.last in
      if ls < seq_max then Timestamp.make ~time_us:lt ~node:t.node ~seq:(ls + 1)
      else Timestamp.make ~time_us:(lt + 1) ~node:t.node ~seq:0
    end
  in
  if Timestamp.time_us candidate > hi then None
  else begin
    t.last <- candidate;
    Some candidate
  end
