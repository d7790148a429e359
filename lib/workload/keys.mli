(** Key strings without [Printf].

    Workload keys are a few literal pieces around decimal ints, e.g.
    ["d:3:ol:17:4"].  The builders write them into one exactly sized
    string; each returns what the matching [Printf.sprintf] format
    returns, for every int. *)

val int1 : string -> int -> string -> string
(** [int1 p a s] is [Printf.sprintf "%s%d%s" p a s]. *)

val int2 : string -> int -> string -> int -> string
(** [int2 p a m x] is [Printf.sprintf "%s%d%s%d" p a m x]. *)

val int3 : string -> int -> string -> int -> int -> string
(** [int3 p a m x y] is [Printf.sprintf "%s%d%s%d:%d" p a m x y]. *)

val int4 : string -> int -> string -> int -> int -> int -> string
(** [int4 p a m x y z] is [Printf.sprintf "%s%d%s%d:%d:%d" p a m x y z]. *)

(** {2 Tables over a fixed domain} *)

type table
(** A memo of a key builder over the ids [0 .. n-1], for keys a workload
    names again and again (districts, items, stock rows). *)

val table : (int -> string) -> table

val cover : table -> int -> unit
(** [cover t n] makes [t] hold the keys of ids [0 .. n-1].  A table is
    never written after it is published: growing swaps in a new one, so
    lookups from other domains stay safe while it grows. *)

val get : table -> int -> string
(** The key of an id: from the table when covered, else built afresh.
    Either way the same string as the builder returns. *)
