(** The optimistic method for dependent transactions (§IV-E).

    A client that cannot declare its write set up front first reads its
    read set from a snapshot at timestamp [tsr], computes the intended
    writes, and then installs {e validating functors} at a later timestamp
    [tsw].  Each validating functor re-reads the read set (at [tsw - 1],
    as every functor does) and aborts the transaction if any value changed
    since the snapshot — Hyder-style backward validation, except that
    validation is decentralised and parallel because each functor needs
    only the latest previous versions of its own read set. *)

val handler_name : string
(** ["occ_validate"]. *)

val register : Registry.t -> unit
(** Make the validation handler available; idempotent registration is not
    attempted — call once per registry. *)

val encode_snapshot : (string * Value.t option) list -> Value.t
(** Encode the observed snapshot for transport inside an f-argument. *)
