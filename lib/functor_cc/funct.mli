(** Functor records: what one version of a key stores (§III-D Figure 4),
    plus the runtime state the compute engine attaches to it.

    A freshly installed record is either already {e final} (f-type VALUE /
    ABORTED / DELETED) or {e pending}.  A pending record transitions to
    final exactly once; interested parties (on-demand readers, remote Get
    requests, the coordinator's completion tracking) register waiters that
    fire at that transition. *)

type final =
  | Committed of Value.t
  | Aborted_v  (** reads skip to the next lower version *)
  | Deleted_v  (** reads observe deletion (⊥) *)

type farg = {
  read_set : Mvstore.Key.t list;
      (** keys the handler reads (at version - 1); empty for built-ins,
          which implicitly read their own key *)
  args : Value.t list;  (** client-supplied arguments *)
  recipients : Mvstore.Key.t list;
      (** §IV-B recipient set: keys of same-transaction functors whose read
          set includes this key; computing this functor proactively pushes
          this key's previous value to them *)
  dependents : Mvstore.Key.t list;
      (** §IV-E dependent keys this (determinate) functor may write *)
  pushed_reads : Mvstore.Key.t list;
      (** read-set keys that a same-transaction functor will push here
          proactively (§IV-B): the engine waits for the push instead of
          issuing a remote read *)
}

val farg_empty : farg
val farg_args : Value.t list -> farg

type status =
  | Installed  (** waiting in storage, computation not yet triggered *)
  | Computing  (** reads in flight; waiters accumulate *)

type pending = {
  ftype : Ftype.t;
  farg : farg;
  txn_id : int;
  coordinator : int;  (** FE node id to notify on completion *)
  mutable status : status;
  mutable waiters : (final -> unit) list;
  mutable pushed : (Mvstore.Key.t * Value.t option) list;
      (** proactively pushed reads received so far (assoc by key) *)
  mutable push_waiters : (Mvstore.Key.t * (Value.t option -> unit)) list;
      (** continuations waiting for a specific key's push *)
  mutable installed_at_us : int;
      (** when the record was installed at the BE (-1 = unset); drives the
          Figure-10 stage breakdown *)
  mutable retrieved_at_us : int;
      (** when a processor (or an on-demand read) picked the functor up *)
}

type state =
  | Final of final
  | Pending of pending

type t = { mutable state : state }

val final_state : final -> state
(** [Final f], shared: every small int (0..1023), ABORTED and DELETED
    has one preallocated block, returned instead of a fresh one.  Write
    final states through this. *)

val final_int : int -> state
(** [final_state (Committed (Value.int i))] without building the
    [Committed] box: a small int's shared block, else one fresh state. *)

val mk_final : final -> t
val mk_value : Value.t -> t

val mk_pending :
  ftype:Ftype.t -> farg:farg -> txn_id:int -> coordinator:int -> t
(** Raises [Invalid_argument] if [ftype] is final (use {!mk_final}). *)

val is_final : t -> bool

val add_waiter : pending -> (final -> unit) -> unit

val add_push : pending -> key:Mvstore.Key.t -> Value.t option -> unit
(** Record a proactively pushed read; duplicate pushes for a key keep the
    first value (they are idempotent by construction). *)

val pushed_value : pending -> Mvstore.Key.t -> Value.t option option
(** [Some v] when a push for the key has arrived ([v] itself is the pushed
    optional value). *)

val on_push : pending -> key:Mvstore.Key.t -> (Value.t option -> unit) -> unit
(** Register a continuation fired when a push for [key] arrives.  Callers
    racing a push against a remote read must guard against double
    delivery themselves. *)

val pp_final : Format.formatter -> final -> unit
val pp : Format.formatter -> t -> unit
