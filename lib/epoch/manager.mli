(** The epoch manager (EM).

    Controls epoch changes by granting and revoking authorizations at all
    frontends.  One EM serves the whole cluster (it shares a host with a
    server in the paper's deployment; here it is a separate simulated
    process whose address the cluster assigns).

    Lifecycle per epoch [e]:
    + grant authorization [(e, \[lo, hi\])] to every FE;
    + at (EM-clock) time [hi], send [Revoke e];
    + collect [Revoke_ack e] from every FE — each FE acks once its
      in-flight epoch-[e] transactions drained;
    + immediately grant epoch [e + 1], whose [Grant] message doubles as
      the "epoch [e] closed" announcement.

    The gap between steps 2 and 4 is the {e epoch switch time}, tracked in
    metrics as [em.switch_us]. *)

type config = {
  duration_us : int;  (** validity-window length (the paper's 25 ms) *)
}
(** The first window opens 500 us after {!start} (covering grant
    propagation). *)

val default_config : config

type t

val create :
  rpc:Protocol.rpc ->
  addr:Net.Address.t ->
  fes:Net.Address.t list ->
  clock:Clocksync.Node_clock.t ->
  config:config ->
  metrics:Sim.Metrics.t ->
  unit -> t

val start : t -> unit
(** Grant the first epoch.  Runs forever (until the simulation stops). *)

val current_epoch : t -> int

val epochs_closed : t -> int
