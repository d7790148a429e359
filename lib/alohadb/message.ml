type fspec = {
  ftype : Functor_cc.Ftype.t;
  farg : Functor_cc.Funct.farg;
}

type install = {
  txn_id : int;
  epoch : int;
  ts : int;
  lo : int;
  hi : int;
  writes : (Mvstore.Key.t * fspec) list;
  preconditions : Mvstore.Key.t list;
  fast : bool;
}

type req =
  | Install of install
  | Abort_txn of { ts : int; keys : Mvstore.Key.t list }
  | Get_req of { key : Mvstore.Key.t; version : int }

type resp =
  | Install_ack of { ok : bool }
  | Abort_ack
  | Get_resp of Functor_cc.Value.t option

type oneway =
  | Push of {
      key : Mvstore.Key.t;
      version : int;
      src_key : Mvstore.Key.t;
      value : Functor_cc.Value.t option;
    }
  | Dep_write of {
      key : Mvstore.Key.t;
      version : int;
      final : Functor_cc.Funct.final;
    }
  | Batch_done of {
      txn_id : int;
      partition : int;
      functors : int;
      max_retrieved_at : int;
      aborted : bool;
    }
  | Batch_done_ack of { txn_id : int; partition : int }
  | Plan_sub of {
      key : Mvstore.Key.t;
      version : int;
      dst_key : Mvstore.Key.t;
      dst_version : int;
    }
  | Plan_push of {
      key : Mvstore.Key.t;
      version : int;
      src_key : Mvstore.Key.t;
      value : Functor_cc.Value.t option;
    }
  | Wal_ship of { partition : int; term : int; seq : int; entry : log_entry }
  | Ship_ack of { partition : int; term : int; seq : int }

and log_entry =
  | Log_install of {
      key : Mvstore.Key.t;
      version : int;
      spec : fspec;
      txn_id : int;
      coordinator : int;
      epoch : int;
      fast : bool;
    }
  | Log_abort of { key : Mvstore.Key.t; version : int }
  | Log_epoch_closed of int

type wire =
  | Req of req
  | One of oneway

type rpc = (wire, resp) Net.Rpc.t

let functor_of_fspec spec ~txn_id ~coordinator =
  match spec.ftype with
  | Functor_cc.Ftype.Value -> (
      match spec.farg.Functor_cc.Funct.args with
      | [ v ] -> Functor_cc.Funct.mk_value v
      | _ -> invalid_arg "functor_of_fspec: VALUE expects one argument")
  | Functor_cc.Ftype.Deleted ->
      Functor_cc.Funct.mk_final Functor_cc.Funct.Deleted_v
  | Functor_cc.Ftype.Aborted ->
      Functor_cc.Funct.mk_final Functor_cc.Funct.Aborted_v
  | Functor_cc.Ftype.Add | Functor_cc.Ftype.Subtr | Functor_cc.Ftype.Max
  | Functor_cc.Ftype.Min | Functor_cc.Ftype.User _
  | Functor_cc.Ftype.Dep_marker _ ->
      Functor_cc.Funct.mk_pending ~ftype:spec.ftype ~farg:spec.farg ~txn_id
        ~coordinator

let fspec_value v =
  { ftype = Functor_cc.Ftype.Value;
    farg = Functor_cc.Funct.farg_args [ v ] }

let fspec_delete =
  { ftype = Functor_cc.Ftype.Deleted; farg = Functor_cc.Funct.farg_empty }

let builtin ftype n ~recipients ~pushed_reads =
  { ftype;
    farg =
      { (Functor_cc.Funct.farg_args [ Functor_cc.Value.int n ]) with
        Functor_cc.Funct.recipients; pushed_reads } }

(* Specs are immutable, so a built-in with no recipients and no pushed
   reads shares one spec per (kind, operand) for operands in
   [0, shared_operands), built once here, instead of allocating its own
   per functor (and keeping it alive in the WAL). *)
let shared_operands = 64

let shared_builtins ftype =
  Array.init shared_operands (fun n ->
      builtin ftype n ~recipients:[] ~pushed_reads:[])

let shared_add = shared_builtins Functor_cc.Ftype.Add
let shared_subtr = shared_builtins Functor_cc.Ftype.Subtr
let shared_max = shared_builtins Functor_cc.Ftype.Max
let shared_min = shared_builtins Functor_cc.Ftype.Min

let fspec_of_op ~key:_ ~recipients ?(pushed_reads = []) op =
  let spec ftype shared n =
    if recipients = [] && pushed_reads = [] && n >= 0 && n < shared_operands
    then shared.(n)
    else builtin ftype n ~recipients ~pushed_reads
  in
  match op with
  | Txn.Put v -> fspec_value v
  | Txn.Delete -> fspec_delete
  | Txn.Add n -> spec Functor_cc.Ftype.Add shared_add n
  | Txn.Subtr n -> spec Functor_cc.Ftype.Subtr shared_subtr n
  | Txn.Max n -> spec Functor_cc.Ftype.Max shared_max n
  | Txn.Min n -> spec Functor_cc.Ftype.Min shared_min n
  | Txn.Call { handler; read_set; args } ->
      { ftype = Functor_cc.Ftype.User handler;
        farg =
          { Functor_cc.Funct.read_set = List.map Mvstore.Key.intern read_set;
            args; recipients; dependents = []; pushed_reads } }
  | Txn.Det { handler; read_set; args; dependents } ->
      { ftype = Functor_cc.Ftype.User handler;
        farg =
          { Functor_cc.Funct.read_set = List.map Mvstore.Key.intern read_set;
            args; recipients;
            dependents = List.map Mvstore.Key.intern dependents;
            pushed_reads } }

let fspec_dep_marker ~det_key =
  { ftype = Functor_cc.Ftype.Dep_marker det_key;
    farg = Functor_cc.Funct.farg_empty }
