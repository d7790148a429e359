(** Functor types (Table I).

    A functor is an (f-type, f-argument) pair stored as one version of a
    key.  [Value], [Aborted] and [Deleted] are {e final} — no computation
    needed.  The numeric built-ins read only their own key's previous
    version.  [User] names a handler in the {!Registry}.  [Dep_marker] is
    this implementation's realisation of §IV-E dependent keys: a
    placeholder that resolves when the determinate functor's deferred
    write (or skip) arrives. *)

type t =
  | Value  (** f-argument is the literal value *)
  | Aborted  (** this version was aborted *)
  | Deleted  (** tombstone *)
  | Add  (** numeric increment of own key *)
  | Subtr  (** numeric decrement of own key *)
  | Max  (** keep the larger of old value and argument *)
  | Min  (** keep the smaller of old value and argument *)
  | User of string  (** named handler with explicit read set *)
  | Dep_marker of Mvstore.Key.t
      (** dependent-key placeholder; payload is the determinate key *)

val is_final : t -> bool
(** True for [Value], [Aborted], [Deleted] — the f-types excluded from
    computation by lines 5 and 18–20 of Algorithm 1. *)

val table_i : (string * string) list
(** The rows of the paper's Table I: (f-type, f-argument representation),
    printed by the [table1] bench target. *)
