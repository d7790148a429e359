(** Request/response RPC over the simulated {!Network}.

    Mirrors the role fbthrift plays in the paper's implementation: typed
    request and response payloads, correlation of replies with outstanding
    calls, and support for asynchronous (deferred) replies so that a server
    can answer after further internal processing or remote reads.

    One-way messages are also provided — epoch-switch notifications and
    value pushes do not need replies. *)

type ('req, 'resp) t

val create :
  Sim.Engine.t -> Sim.Rng.t -> latency:Latency.t -> ?faults:Faults.t ->
  unit -> ('req, 'resp) t
(** [faults], when given, injects deterministic link faults into the
    underlying network (see {!Faults}). *)

val engine : _ t -> Sim.Engine.t

val serve :
  ('req, 'resp) t -> Address.t ->
  (src:Address.t -> 'req -> reply:('resp -> unit) -> unit) -> unit
(** Install the request handler for a node.  [reply] may be called at any
    later simulated time, exactly once; calling it twice raises
    [Failure]. *)

val serve_oneway :
  ('req, 'resp) t -> Address.t -> (src:Address.t -> 'req -> unit) -> unit
(** Install the handler for one-way messages addressed to the node. *)

val call :
  ('req, 'resp) t -> src:Address.t -> dst:Address.t -> 'req ->
  ('resp -> unit) -> unit
(** Send a request; the callback fires when the reply arrives back at
    [src], which must serve on this RPC layer ({!serve} or
    {!serve_oneway}) for the reply to route back. *)

val send : ('req, 'resp) t -> src:Address.t -> dst:Address.t -> 'req -> unit
(** Fire-and-forget one-way message. *)

val drop_stats : _ t -> Network.drop_stats

val set_trace : _ t -> (src:Address.t -> dst:Address.t -> unit) -> unit
(** Observe every send on the underlying network (payloads elided — the
    chaos trace hash covers timing and endpoints only). *)

val set_fault_hook :
  _ t -> (now:int -> dst:Address.t -> kind:[ `Drop | `Delay ] -> unit) -> unit
(** Observe fault verdicts on the underlying network (see
    {!Network.set_fault_hook}). *)

val outstanding_calls : _ t -> int
(** Calls whose replies have not yet been delivered (for quiescence
    checks in tests). *)
