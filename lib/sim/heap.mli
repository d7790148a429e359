(** Binary min-heap specialised for discrete-event scheduling.

    Entries are ordered by [priority] first and, for equal priorities, by
    insertion order, so that events scheduled for the same instant fire in
    FIFO order.  This stability is what makes whole-cluster simulations
    deterministic. *)

type 'a t

val create : vacant:'a -> unit -> 'a t
(** [create ~vacant ()] is an empty heap.  [vacant] fills the slots no
    entry occupies, so the heap never keeps a popped value reachable. *)

val is_empty : 'a t -> bool

val add : 'a t -> priority:int -> 'a -> unit
(** [add t ~priority v] inserts [v]. Amortised O(log n). *)

val min_priority : 'a t -> int
(** Priority of the minimum entry; [Invalid_argument] on an empty heap.
    Allocates nothing. *)

val pop_min : 'a t -> 'a
(** Remove the minimum entry and return its value; [Invalid_argument] on
    an empty heap.  Allocates nothing. *)
