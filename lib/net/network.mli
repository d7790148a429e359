(** Simulated point-to-point message network.

    Delivery is asynchronous with latency drawn from a {!Latency.t} model.
    Ordering guarantee: none between distinct sends (like UDP/parallel TCP
    streams); protocols that need ordering must build it themselves — as the
    real systems do.  A per-link option enforces FIFO ordering when a
    protocol layer wants TCP-like semantics.

    Delivery to an unregistered address counts as a drop (recorded).  An
    optional {!Faults.t} oracle adds deterministic, seeded fault
    injection: drops, delays, duplicates, reorderings and partitions (see
    {!Faults}). *)

type 'msg t

type drop_stats = {
  injected : int;  (** lost to probabilistic link faults *)
  partitioned : int;  (** cut off by partition windows *)
  crashed : int;
      (** always 0: crashes are modelled by the servers, which stay
          reachable, so no drop is counted here *)
  unregistered : int;  (** no handler at the destination *)
}

val create :
  Sim.Engine.t -> Sim.Rng.t -> latency:Latency.t -> ?faults:Faults.t ->
  unit -> 'msg t
(** Messages on each (src, dst) link are delivered in send order,
    modelling a TCP connection per link; only a fault reordering a
    message lets it overtake.  [faults], when given, is consulted on every
    send. *)

val engine : _ t -> Sim.Engine.t

val register : 'msg t -> Address.t -> (src:Address.t -> 'msg -> unit) -> unit
(** Install the handler that receives messages addressed to the node.
    Re-registering replaces the handler. *)

val send : 'msg t -> src:Address.t -> dst:Address.t -> 'msg -> unit
(** Queue a message for delivery after a sampled latency.  Self-sends are
    delivered with loopback latency. *)

val drop_stats : _ t -> drop_stats
(** Drops broken out by cause, so chaos invariants can assert precisely. *)

val total_drops : drop_stats -> int
(** The sum of the fields. *)

val set_trace : 'msg t -> (src:Address.t -> dst:Address.t -> 'msg -> unit) -> unit
(** Observe every send (for tests, debugging, and chaos trace hashing).
    The hook fires at send time, before the fault oracle — so a trace
    covers attempted sends and is independent of delivery outcome. *)

val set_fault_hook :
  'msg t ->
  (now:int -> dst:Address.t -> kind:[ `Drop | `Delay ] -> unit) -> unit
(** Observe every fault verdict that perturbs a message: [`Drop] for any
    dropped send, [`Delay] for a delivery with added delay, duplication or
    reordering.  Used by the observability layer to correlate lifecycle
    spans with injected chaos. *)
