(** Interned keys.

    Every distinct key name maps to one shared record carrying a dense int
    id; equality and hashing are by id, so hot paths never re-hash the key
    string.  [intern] is the only constructor.  The intern table is
    process-wide and append-only: repeated runs in one process reuse ids
    for recurring names. *)

type t

val intern : string -> t
(** Get-or-create the record for a key name. *)

val id : t -> int
(** Dense id, assigned in intern order starting at 0. *)

val of_id : int -> t
(** The record with this id.  Raises [Invalid_argument] for an id not yet
    assigned.  Not synchronized with {!intern}: call it from the
    orchestrating domain only, never while worker domains intern. *)

val name : t -> string

val equal : t -> t -> bool

val new_stamp : unit -> int
(** Fresh generation stamp for {!memo_int} users (e.g. a cluster caching
    each key's partition).  Stamps are process-unique. *)

val memo_int : t -> stamp:int -> f:(string -> int) -> int
(** [memo_int k ~stamp ~f] returns the cached value when the key's memo
    slot carries [stamp], otherwise computes [f (name k)], caches it under
    [stamp] and returns it.  The slot holds one generation at a time. *)
