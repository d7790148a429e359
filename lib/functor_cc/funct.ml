type final =
  | Committed of Value.t
  | Aborted_v
  | Deleted_v

type farg = {
  read_set : Mvstore.Key.t list;
  args : Value.t list;
  recipients : Mvstore.Key.t list;
  dependents : Mvstore.Key.t list;
  pushed_reads : Mvstore.Key.t list;
}

let farg_empty =
  { read_set = []; args = []; recipients = []; dependents = [];
    pushed_reads = [] }

let farg_args args = { farg_empty with args }

type status = Installed | Computing

type pending = {
  ftype : Ftype.t;
  farg : farg;
  txn_id : int;
  coordinator : int;
  mutable status : status;
  mutable waiters : (final -> unit) list;
  mutable pushed : (Mvstore.Key.t * Value.t option) list;
  mutable push_waiters : (Mvstore.Key.t * (Value.t option -> unit)) list;
  mutable installed_at_us : int;
  mutable retrieved_at_us : int;
}

type state =
  | Final of final
  | Pending of pending

type t = { mutable state : state }

(* Most final versions hold a small int (counters, quantities), ABORTED
   or DELETED.  Each of those states gets one block, built once and
   shared by every record that reaches it; states are immutable, so no
   caller can tell a shared block from a fresh one.  Records stay
   distinct: only their [state] field points at the shared block. *)
let small_committed =
  Array.init 1024 (fun i -> Final (Committed (Value.int i)))

let final_aborted = Final Aborted_v
let final_deleted = Final Deleted_v

let final_state = function
  | Committed (Value.Int i) when i >= 0 && i < Array.length small_committed ->
      Array.unsafe_get small_committed i
  | Aborted_v -> final_aborted
  | Deleted_v -> final_deleted
  | Committed _ as f -> Final f

let final_int i =
  if i >= 0 && i < Array.length small_committed then
    Array.unsafe_get small_committed i
  else Final (Committed (Value.Int i))

let mk_final f = { state = final_state f }

let mk_value v = mk_final (Committed v)

let mk_pending ~ftype ~farg ~txn_id ~coordinator =
  if Ftype.is_final ftype then
    invalid_arg "Funct.mk_pending: final f-type; use mk_final";
  { state =
      Pending
        { ftype; farg; txn_id; coordinator; status = Installed; waiters = [];
          pushed = []; push_waiters = []; installed_at_us = -1;
          retrieved_at_us = -1 } }

let is_final t = match t.state with Final _ -> true | Pending _ -> false

let add_waiter p w = p.waiters <- w :: p.waiters

let rec assoc_key k = function
  | [] -> None
  | (k', v) :: tl -> if Mvstore.Key.equal k k' then Some v else assoc_key k tl

let add_push p ~key v =
  if assoc_key key p.pushed = None then begin
    p.pushed <- (key, v) :: p.pushed;
    let ready, waiting =
      List.partition (fun (k, _) -> Mvstore.Key.equal k key) p.push_waiters
    in
    p.push_waiters <- waiting;
    List.iter (fun (_, w) -> w v) ready
  end

let pushed_value p key = assoc_key key p.pushed

let on_push p ~key w = p.push_waiters <- (key, w) :: p.push_waiters

let pp_final fmt = function
  | Committed v -> Format.fprintf fmt "VALUE %a" Value.pp v
  | Aborted_v -> Format.pp_print_string fmt "ABORTED"
  | Deleted_v -> Format.pp_print_string fmt "DELETED"

let pp fmt t =
  match t.state with
  | Final f -> pp_final fmt f
  | Pending p ->
      Format.fprintf fmt "%a[%s]" Ftype.pp p.ftype
        (match p.status with Installed -> "installed" | Computing -> "computing")
