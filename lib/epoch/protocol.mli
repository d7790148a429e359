(** Wire messages of the epoch-management control plane (§II, §III-B).

    The epoch manager (EM) and the frontends exchange one-way messages on
    a dedicated control network: grants open a write epoch with a validity
    window, revokes close it, and acks confirm that a frontend has drained
    its in-flight transactions.  [Grant] for epoch [e] doubles as the
    "epoch [e - 1] is closed" announcement, which is what makes writes of
    the previous epoch visible and releases buffered functor metadata to
    the processors. *)

type msg =
  | Grant of {
      epoch : int;
      lo : int;  (** validity start (local-clock µs) *)
      hi : int;  (** validity finish *)
      next_duration : int;
          (** planned duration of the epoch after this one — the bound the
              straggler optimisation needs (§III-C) *)
    }
  | Revoke of { epoch : int }
  | Revoke_ack of { epoch : int }

type rpc = (msg, unit) Net.Rpc.t
(** Control-plane transport; replies are never used (all one-way). *)
