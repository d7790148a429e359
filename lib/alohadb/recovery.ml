module Funct = Functor_cc.Funct

let max_final_version engine =
  let table = Functor_cc.Compute_engine.table engine in
  Mvstore.Table.fold_chains table ~init:0 ~f:(fun _ chain acc ->
      Mvstore.Chain.fold chain ~init:acc ~f:(fun acc version record ->
          match record.Funct.state with
          | Funct.Final (Funct.Committed _ | Funct.Deleted_v) ->
              max acc version
          | Funct.Final Funct.Aborted_v | Funct.Pending _ -> acc))

let replay ~engine ~entries =
  List.iter
    (fun entry ->
      match entry with
      | Wal.Log_install
          { key; version; spec; txn_id; coordinator; epoch = _; fast = _ }
        -> (
          (* Recipient-set pushes are not re-sent after a crash: replayed
             functors must fall back to explicit (remote) reads. *)
          let spec =
            { spec with
              Message.farg =
                { spec.Message.farg with Functor_cc.Funct.pushed_reads = [] }
            }
          in
          let record = Message.functor_of_fspec spec ~txn_id ~coordinator in
          match
            Functor_cc.Compute_engine.install engine ~key ~version ~lo:0
              ~hi:max_int record
          with
          | Ok () | Error (`Duplicate_version | `Version_out_of_window) -> ())
      | Wal.Log_abort { key; version } ->
          Functor_cc.Compute_engine.abort_version engine ~key ~version
      | Wal.Log_epoch_closed _ -> ())
    entries
