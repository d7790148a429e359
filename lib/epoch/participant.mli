(** Frontend-side epoch state: the driver of {!Cores.Auth}.

    The core tracks the authorization the EM granted, counts in-flight
    transactions per epoch so revocations are acknowledged exactly when
    the epoch has drained, and applies the §III-C straggler rule: after a
    revocation is acknowledged locally, new transactions may start
    {e without} authorization, provided their timestamps do not exceed
    [previous finish + next epoch's duration].  Such transactions are
    accounted against the {e next} epoch (they become visible together
    with it).  This module sends the acks, reads the local clock and
    hands every other decision to the hooks given to {!serve}.

    [on_closed] fires when the grant for epoch [e + 1] arrives — i.e.
    when epoch [e] is globally closed; the server passes it through its
    close gate before it releases buffered functor metadata and delayed
    latest-version reads. *)

type t

val create :
  rpc:Protocol.rpc ->
  addr:Net.Address.t ->
  em:Net.Address.t ->
  clock:Clocksync.Node_clock.t ->
  straggler_opt:bool ->
  metrics:Sim.Metrics.t ->
  unit -> t

val serve :
  t ->
  on_open:(epoch:int -> lo:int -> hi:int -> unit) ->
  on_closed:(epoch:int -> unit) ->
  unit
(** Register the FE's control-plane handler; a second call replaces the
    hooks. *)

val window : t -> Cores.Auth.window option
(** Where a transaction starting right now would live: [Some w] when
    starting is currently allowed (with or without authorization), [None]
    when the FE must hold the transaction (no grant yet, or authorization
    expired/revoked and the straggler optimisation is off). *)

val txn_started : t -> epoch:int -> unit

val txn_finished : t -> epoch:int -> unit
(** Decrement the epoch's in-flight count; sends the pending
    [Revoke_ack] when this was the last one. *)

val in_flight : t -> epoch:int -> int

val current_epoch : t -> int
(** Latest epoch granted (0 before the first grant). *)

val on_state_change : t -> (unit -> unit) -> unit
(** Register a callback invoked after every grant/revoke transition —
    the server uses it to retry held transactions. *)
