(** Calvin's wire messages.

    Replication is disabled (as in the paper's comparison), so sequencers
    ship each epoch's batch straight to the schedulers.  Every sequencer
    sends a batch message — possibly empty — to every server per epoch;
    the scheduler barrier on "one batch from each sequencer" is what makes
    the global order (epoch, sequencer, index) deterministic. *)

type uid = int
(** Packed (epoch, sequencer, index) — see {!uid_make}. *)

val uid_make : epoch:int -> seq_id:int -> idx:int -> uid

type routed = {
  uid : uid;
  origin : int;  (** server that accepted the client request *)
  submitted_at : int;  (** client submission time (for latency) *)
  txn : Ctxn.t;
}

type wire =
  | Batch of { epoch : int; seq_id : int; txns : routed list }
  | Reads of {
      uid : uid;
      from : int;  (** partition that produced these values *)
      values : (string * Functor_cc.Value.t option) list;
    }
  | Done of { uid : uid; partition : int }

type rpc = (wire, unit) Net.Rpc.t
(** All Calvin messages are one-way. *)
