type phase =
  | Idle
  | Open of { epoch : int; hi : int }
  | Switching of {
      epoch : int;
      hi : int;
      mutable awaiting : int list;  (* ascending *)
      revoke_sent_at : int;
    }

type t = {
  fes : int list;
  duration_us : int;
  mutable phase : phase;
}

type action =
  | Grant of { epoch : int; lo : int; hi : int; next_duration : int }
  | Revoke of { epoch : int; dsts : int list; retry : bool }
  | Wake_after of { epoch : int; delay : int }
  | Closed of { epoch : int; switch_us : int }
  | Stale_ack

(* well above the fault-free switch time: retries only fire under faults *)
let revoke_retry_us = 5_000

let create ~fes ~duration_us =
  if duration_us <= 0 then invalid_arg "Manager: duration_us";
  { fes; duration_us; phase = Idle }

let current_epoch t =
  match t.phase with
  | Idle -> 0
  | Open { epoch; _ } | Switching { epoch; _ } -> epoch

(* every epoch but the open or switching one has closed *)
let epochs_closed t = max 0 (current_epoch t - 1)

let open_epoch t ~epoch ~lo ~local =
  let hi = lo + t.duration_us in
  t.phase <- Open { epoch; hi };
  [ Grant { epoch; lo; hi; next_duration = t.duration_us };
    Wake_after { epoch; delay = max 0 (hi - local) } ]

let start t ~local ~lead_us = open_epoch t ~epoch:1 ~lo:(local + lead_us) ~local

let wake t ~epoch ~now =
  let retry = Wake_after { epoch; delay = revoke_retry_us } in
  match t.phase with
  | Open o when o.epoch = epoch ->
      t.phase <-
        Switching
          { epoch; hi = o.hi; awaiting = List.sort_uniq compare t.fes;
            revoke_sent_at = now };
      [ Revoke { epoch; dsts = t.fes; retry = false }; retry ]
  | Switching s when s.epoch = epoch ->
      [ Revoke { epoch; dsts = s.awaiting; retry = true }; retry ]
  | Open _ | Switching _ | Idle -> []

let ack t ~src ~epoch ~now ~local =
  match t.phase with
  | Switching s when s.epoch = epoch ->
      s.awaiting <- List.filter (fun fe -> fe <> src) s.awaiting;
      if s.awaiting <> [] then []
      else
        Closed { epoch; switch_us = now - s.revoke_sent_at }
        :: open_epoch t ~epoch:(epoch + 1) ~lo:(max local (s.hi + 1)) ~local
  | Switching _ | Open _ | Idle -> [ Stale_ack ]
