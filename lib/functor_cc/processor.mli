(** The backend's per-epoch functor buffer (§IV-D).

    While an epoch is open, installs only buffer (key, version) metadata,
    tagged with the installing transaction's epoch.  When an epoch closes,
    {!drain} hands the closed epochs' metadata to the {!Planner}, which
    plays the paper's asynchronous processor pool: it evaluates every
    buffered functor after epoch close, while on-demand reads may beat it
    to any of them (the engine's at-most-once discipline makes that race
    benign).  A server keeps a second buffer for its fast-lane deltas,
    which epoch close folds directly instead of planning. *)

type t

type item = { key : Mvstore.Key.t; version : int }

val create : unit -> t

val buffer : t -> epoch:int -> key:Mvstore.Key.t -> version:int -> unit
(** Record metadata for a functor installed in the given (open) epoch. *)

val drain : t -> upto_epoch:int -> (int * item list) list
(** Remove and return the buffered items of epochs <= [upto_epoch] as
    [(epoch, items)] groups: epochs ascending, items in install order
    within an epoch.  Later epochs stay buffered. *)

val buffered : t -> int
(** Items awaiting release (gauge probe and test helper). *)
