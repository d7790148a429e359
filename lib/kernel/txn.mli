(** Engine-neutral transaction descriptions.

    A transaction is a list of per-key operations plus an optional set of
    precondition keys.  The [op] type mirrors the ALOHA functor forms
    (§IV): blind puts/deletes, commutative arithmetic updates, registry
    [Call]s with an explicit read set, and determinate [Det] functors
    whose handler resolves deferred writes to the declared dependent keys
    (§IV-E).

    Because deterministic engines (Calvin-style locking, 2PL) must know
    the complete write set before execution, a transaction carries {e two
    facets}:

    - [functor_form] — the description as ALOHA installs it, where a
      [Det] op may decide {e at evaluation time} which dependents to
      write;
    - [static_form] — an equivalent description whose write set is fully
      static (no [Det]), forced lazily only when a static engine runs the
      transaction.  Generators that need engine-specific pre-assignment
      (e.g. TPC-C order ids drawn from a per-district counter) do it
      inside the lazy thunk.

    For the common case where the description is already static,
    {!make} uses one description for both facets. *)

type op =
  | Put of Functor_cc.Value.t
  | Delete
  | Add of int
  | Subtr of int
  | Max of int
  | Min of int
  | Call of {
      handler : string;
      read_set : string list;
      args : Functor_cc.Value.t list;
    }
  | Det of {
      handler : string;
      read_set : string list;
      args : Functor_cc.Value.t list;
      dependents : string list;
    }

type desc = {
  writes : (string * op) list;
  precondition_keys : string list;
      (** keys whose handlers gate the whole transaction (all-or-nothing
          abort, §IV-C); engines without functor aborts ignore them *)
}

type t

type stage = [ `Install | `Compute ]

type reply =
  | Ok
  | Aborted of stage
      (** [`Install]: rejected before execution (e.g. ALOHA buffer
          overflow, 2PL lock timeout); [`Compute]: a handler decided to
          abort. *)

val desc : ?precondition_keys:string list -> (string * op) list -> desc

val make : ?precondition_keys:string list -> (string * op) list -> t
(** A transaction whose description is already static: both facets are
    the same description. *)

val dual : functor_form:desc -> static_form:desc Lazy.t -> t
(** A transaction with distinct facets.  The lazy static facet is forced
    at most once, by the first static engine that submits it. *)

val functor_form : t -> desc
val static_form : t -> desc

val read_set : desc -> string list
(** Sorted, deduplicated keys the description reads: arithmetic ops read
    their own key; [Call]/[Det] read their declared read sets. *)

val write_keys : desc -> string list
(** Sorted, deduplicated keys the description may write, including [Det]
    dependents. *)

val encode_writes : (string * op) list -> Functor_cc.Value.t
(** Encode a write list as a {!Functor_cc.Value.t} so it can be shipped
    as the argument of a single generic stored procedure. *)

val decode_writes : Functor_cc.Value.t -> (string * op) list
(** Inverse of {!encode_writes}.  Raises [Invalid_argument] on malformed
    input. *)
