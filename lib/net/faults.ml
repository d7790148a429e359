type transport = Lossy | Reliable

type kind = Drop | Delay | Duplicate | Reorder

type edict = {
  kind : kind;
  p : float;
  extra_max_us : int;
  src : Address.t option;
  dst : Address.t option;
  from_us : int;
  until_us : int;
}

type part = { members : Address.Set.t; p_from : int; p_until : int }

type t = {
  rng : Sim.Rng.t;
  transport : transport;
  mutable edicts : edict list;  (* evaluation order *)
  mutable partitions : part list;
}

(* Retransmission timeout model for the Reliable transport: a lost segment
   or a partitioned link shows up as this much extra one-way delay per
   "loss".  Sampled so that repeated losses in a window don't synchronise. *)
let rto_base_us = 2_000
let rto_jitter_us = 3_000

let edict ?src ?dst ?(extra_max_us = 0) kind ~p ~from_us ~until_us =
  if p < 0.0 || p > 1.0 then invalid_arg "Faults.edict: p";
  if until_us < from_us then invalid_arg "Faults.edict: window";
  { kind; p; extra_max_us; src; dst; from_us; until_us }

let create ?(transport = Lossy) ~seed () =
  { rng = Sim.Rng.create seed; transport; edicts = []; partitions = [] }

let transport t = t.transport

let install t edicts = t.edicts <- t.edicts @ edicts

let partition t ~group ~from_us ~until_us =
  if until_us < from_us then invalid_arg "Faults.partition: window";
  t.partitions <-
    t.partitions
    @ [ { members = Address.Set.of_list group;
          p_from = from_us; p_until = until_us } ]

type verdict =
  | Deliver of { extra_delay_us : int; copies : int; reorder : bool }
  | Drop_injected
  | Drop_partitioned

let matches e ~now ~src ~dst =
  now >= e.from_us && now < e.until_us
  && (match e.src with None -> true | Some a -> Address.equal a src)
  && (match e.dst with None -> true | Some a -> Address.equal a dst)

(* The first partition window that separates src from dst; returns its
   heal time so the Reliable transport can buffer until then. *)
let partitioned t ~now ~src ~dst =
  List.find_opt
    (fun p ->
      now >= p.p_from && now < p.p_until
      && Address.Set.mem src p.members <> Address.Set.mem dst p.members)
    t.partitions

let rto t = rto_base_us + Sim.Rng.int t.rng rto_jitter_us

let decide t ~now ~src ~dst =
  match partitioned t ~now ~src ~dst with
  | Some p -> (
      match t.transport with
      | Lossy -> Drop_partitioned
      | Reliable ->
          (* Buffered by the transport: delivered once the partition
             heals, plus a retransmission backoff. *)
          Deliver
            { extra_delay_us = p.p_until - now + rto t;
              copies = 1; reorder = false })
  | None ->
      let extra = ref 0 in
      let copies = ref 1 in
      let reorder = ref false in
      let dropped = ref false in
      List.iter
        (fun e ->
          if (not !dropped) && matches e ~now ~src ~dst
             && Sim.Rng.bernoulli t.rng e.p
          then
            match (e.kind, t.transport) with
            | Drop, Lossy -> dropped := true
            | Drop, Reliable ->
                (* retransmitted: loss becomes latency *)
                extra := !extra + rto t
            | Delay, _ ->
                extra :=
                  !extra
                  + (if e.extra_max_us <= 0 then 0
                     else Sim.Rng.int t.rng (e.extra_max_us + 1))
            | Duplicate, Lossy -> copies := !copies + 1
            | Reorder, Lossy ->
                reorder := true;
                extra :=
                  !extra
                  + (if e.extra_max_us <= 0 then 0
                     else Sim.Rng.int t.rng (e.extra_max_us + 1))
            | Duplicate, Reliable | Reorder, Reliable ->
                (* TCP dedups and orders; nothing observable. *)
                ())
        t.edicts;
      if !dropped then Drop_injected
      else
        Deliver
          { extra_delay_us = !extra; copies = !copies; reorder = !reorder }
