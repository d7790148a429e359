(** The client-facing transaction model (§IV-A).

    Transactions are one-shot: the read set, write set and arguments are
    known when the transaction is submitted (Calvin has the same
    restriction).  A read-write transaction is a list of per-key write
    operations; each operation is transformed by the frontend into one
    functor.  Dependent transactions use {!Det} operations (the §IV-E
    key-dependency method) or are executed optimistically by the client
    with {!Functor_cc.Optimistic}.

    Read-only transactions at the latest version are delayed to the next
    epoch and served as historical reads (§III-B); reads at an explicit
    historical timestamp execute immediately.

    [op] is {!Kernel.Txn.op}: a kernel description's write list is
    submitted as it is. *)

type op = Kernel.Txn.op =
  | Put of Functor_cc.Value.t  (** blind write (f-type VALUE) *)
  | Delete  (** tombstone (f-type DELETED) *)
  | Add of int  (** numeric increment (f-type ADD) *)
  | Subtr of int
  | Max of int
  | Min of int
  | Call of {
      handler : string;  (** registered user f-type *)
      read_set : string list;
      args : Functor_cc.Value.t list;
    }
  | Det of {
      handler : string;
      read_set : string list;
      args : Functor_cc.Value.t list;
      dependents : string list;
          (** dependent keys this determinate functor may write *)
    }

type request =
  | Read_write of {
      writes : (string * op) list;
      precondition_keys : string list;
          (** keys that must exist on their partition for the write-only
              phase to succeed (drives TPC-C's 1 % NewOrder aborts) *)
    }
  | Read_only of { keys : string list }  (** latest version *)
  | Read_at of { keys : string list; version : int }  (** historical *)

type result =
  | Committed of { ts : Clocksync.Timestamp.t }
  | Aborted of {
      ts : Clocksync.Timestamp.t option;
      stage : [ `Install | `Compute ];
    }
  | Values of (string * Functor_cc.Value.t option) list

val read_write :
  ?precondition_keys:string list -> (string * op) list -> request
(** Convenience constructor.  The client is answered when every functor
    reached a final value, the latency the paper reports. *)

val all_commutative :
  writes:(string * op) list -> precondition_keys:string list -> bool
(** The fast-path classifier: a non-empty write set of commutative
    built-ins ([Add]/[Subtr]/[Max]/[Min], whose functors read only their
    own key and fold commutatively, so any install order converges to
    the same value) with no precondition keys.  Such a transaction needs no
    epoch-close ordering — it can commit as soon as every partition has
    installed its functors. *)

val pp_result : Format.formatter -> result -> unit
