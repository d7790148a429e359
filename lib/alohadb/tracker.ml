type t = {
  ts : Clocksync.Timestamp.t;
  epoch : int;
  issued_at : int;
  reply : Txn.result -> unit;
  expected_dones : int;
  mutable awaiting_installs : int;
  mutable install_failed : bool;
  mutable acked_ok : int list;
  mutable install_done_at : int;
  mutable done_srcs : int list;
  mutable any_aborted : bool;
  mutable max_retrieved : int;
}

let create ~ts ~epoch ~issued_at ~reply ~partitions =
  { ts; epoch; issued_at; reply; expected_dones = partitions;
    awaiting_installs = partitions; install_failed = false; acked_ok = [];
    install_done_at = issued_at; done_srcs = []; any_aborted = false;
    max_retrieved = issued_at }

type install_step = Installing | Installed | Install_rejected

let install_ack t ~partition ~ok ~now =
  t.awaiting_installs <- t.awaiting_installs - 1;
  if ok then t.acked_ok <- partition :: t.acked_ok
  else t.install_failed <- true;
  if t.awaiting_installs > 0 then Installing
  else if t.install_failed then Install_rejected
  else begin
    t.install_done_at <- now;
    Installed
  end

let batch_done t ~partition ~aborted ~max_retrieved_at =
  if List.mem partition t.done_srcs then false
  else begin
    t.done_srcs <- partition :: t.done_srcs;
    if aborted then t.any_aborted <- true;
    if max_retrieved_at > t.max_retrieved then
      t.max_retrieved <- max_retrieved_at;
    true
  end

type verdict = Open | Committed | Aborted

let verdict t =
  if
    t.awaiting_installs = 0
    && (not t.install_failed)
    && List.length t.done_srcs = t.expected_dones
  then if t.any_aborted then Aborted else Committed
  else Open
