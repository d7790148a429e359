(** One partition's key → version-chain table.

    A [Table.t] is the storage component of a backend (BE).  [put] enforces
    the §III-D contract: the version of a new record must lie inside the
    caller-supplied validity window (the current write epoch, or the
    straggler-optimisation window).  Visibility (in-epoch vs out-epoch) is
    enforced by the read path in the functor layer, which supplies the
    epoch-start bound.

    Keys are interned ({!Key.t}); the table probes a flat array of their
    int ids, so a lookup costs an int probe rather than a string hash. *)

type 'a t

type put_error =
  [ `Duplicate_version  (** the (key, version) pair already exists *)
  | `Version_out_of_window  (** version outside the allowed window *) ]

val create : unit -> 'a t

val put :
  'a t -> key:Key.t -> version:int -> lo:int -> hi:int -> 'a ->
  (unit, put_error) result
(** Insert a new version for a key; [lo]/[hi] bound the acceptable version
    range (inclusive). *)

val put_unchecked : 'a t -> key:Key.t -> version:int -> 'a ->
  (unit, [ `Duplicate_version ]) result
(** Insert without a window check — used for loading initial data at
    version zero and for deferred (dependent-key) writes, whose version was
    validated when the determinate functor was installed. *)

val chain : 'a t -> Key.t -> 'a Chain.t option
(** The key's chain, if the key has ever been written. *)

val chain_of : 'a t -> Key.t -> 'a Chain.t
(** The key's chain, created empty on first use.  Callers that touch a
    chain repeatedly should fetch the handle once and keep it. *)

val find_le : 'a t -> key:Key.t -> version:int -> (int * 'a) option

val fold_chains : 'a t -> init:'b -> f:(Key.t -> 'a Chain.t -> 'b -> 'b) -> 'b
(** Fold over every (key, chain) pair without materialising a key list,
    in no particular order.  Keys [f] adds may or may not be visited. *)
