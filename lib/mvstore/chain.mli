(** Ordered multi-version chain for one key (§III-D, Figure 4).

    Versions are kept sorted ascending; because ECC assigns versions equal
    to transaction timestamps and epochs close before computing begins,
    inserts arrive in nearly sorted order and appending is the common case.
    The paper implements the chain as a linked list of arrays; we use
    two parallel growable arrays (versions in an [int array], payloads
    beside it) with binary-search insertion, which has the same
    asymptotics under nearly sorted inserts and simpler invariants, and
    allocates no object per version.

    Each chain carries the key's {e value watermark}: the version below
    (or equal to) which every record holds an immutable final value.
    Payload mutation (functor → final value) is the caller's business —
    {!update} replaces the payload stored at a version. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val insert : 'a t -> version:int -> 'a -> (unit, [ `Duplicate ]) result
(** Insert a new version.  O(1) amortised when [version] is the largest
    so far; O(n) worst case. *)

val find_le : 'a t -> version:int -> (int * 'a) option
(** Latest (version, payload) with version <= the bound — the paper's
    [Get] lookup. *)

val find_exact : 'a t -> version:int -> 'a option

val rank : 'a t -> version:int -> int
(** Index of the latest entry with version <= the bound, or -1.  With
    {!version_at} and {!payload_at} this is {!find_le} without its option
    and pair: a walk over indices allocates nothing.  An index is valid
    until the chain's next insert or truncation. *)

val version_at : 'a t -> int -> int
(** Version of the entry at an index ([0 <= i < length]); raises
    [Invalid_argument] outside that range. *)

val payload_at : 'a t -> int -> 'a
(** Payload of the entry at an index, as {!version_at}. *)

val find_next_after : 'a t -> version:int -> (int * 'a) option
(** Earliest version strictly greater than the bound (used by readers that
    skip ABORTED versions downwards do not need this; processors scanning
    upwards do). *)

val update : 'a t -> version:int -> 'a -> bool
(** Replace the payload at an existing version; [false] if absent. *)

val watermark : 'a t -> int
(** Highest version v such that all records with version <= v are final.
    Initially -1 (nothing final). *)

val advance_watermark : 'a t -> int -> unit
(** Monotone: lower targets are ignored (the paper's CAS loop, lines 7–9
    of Algorithm 1, collapses to this in a single-threaded engine). *)

val advance_watermark_while : 'a t -> f:('a -> bool) -> unit
(** Advance the watermark over the contiguous run of records directly
    above it for which [f payload] holds: one rank search plus a linear
    walk, the hot-path form of repeated [find_next_after] +
    [advance_watermark]. *)

val iter_range : 'a t -> lo:int -> hi:int -> (int -> 'a -> unit) -> unit
(** Apply to every record with lo <= version <= hi, ascending. *)

val fold : 'a t -> init:'acc -> f:('acc -> int -> 'a -> 'acc) -> 'acc
(** Fold over all records, ascending. *)

val truncate_below : 'a t -> version:int -> int
(** Garbage-collect history: drop records with version < the bound,
    except the latest one at or below it (which remains the base value
    for historical reads at the horizon).  Returns the number of records
    reclaimed.  The watermark is unchanged; callers must only truncate
    below it (immutable finals). *)

val versions : 'a t -> int list
(** All version numbers, ascending (test helper). *)

val latest_version : 'a t -> int option
