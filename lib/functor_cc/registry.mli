(** Handler registry for user-defined f-types (§IV-B).

    A handler is the stored procedure fragment that turns a functor into
    the final value of its key.  It receives the values of the functor's
    read set — each read at the latest version strictly below the functor's
    version — together with the client arguments, and returns the outcome.

    Handlers must be deterministic functions of their inputs: every
    partition that evaluates the same functor must reach the same
    decision, and the all-or-nothing abort guarantee (§IV-C) relies on
    abort-influencing keys being present in the read set of {e every}
    functor of the transaction. *)

type ctx = {
  key : string;  (** the key this functor writes *)
  version : int;  (** the transaction timestamp *)
  reads : (string * Value.t option) list;
      (** read-set values; [None] = key absent (or deleted) at that
          version *)
  args : Value.t list;
}

val read : ctx -> string -> Value.t option
(** Look up a read-set value; raises [Not_found] if the key was not in the
    declared read set (a handler bug worth failing loudly on). *)

val arg : ctx -> int -> Value.t
(** The [i]th client argument; raises [Invalid_argument] for an index
    outside [args]. *)

type dep_write =
  | Dep_put of Value.t  (** deferred write of a dependent key *)
  | Dep_delete
  | Dep_skip  (** the condition failed; the dependent key is untouched *)

type outcome =
  | Commit of Value.t
  | Abort  (** logic error / constraint violation: whole txn aborts *)
  | Delete
  | Commit_det of Value.t * (string * dep_write) list
      (** determinate functor: own value plus the resolved deferred writes
          for the dependent keys declared at install time *)

type handler = ctx -> outcome

type t

val register : t -> string -> handler -> unit
(** Raises [Invalid_argument] on duplicate names — silently replacing a
    stored procedure is a deployment error. *)

val find : t -> string -> handler option

val with_builtins : unit -> t
(** An empty registry: each workload registers its own handlers. *)
