type window = { epoch : int; lo : int; hi : int; authorized : bool }

type state =
  | Waiting
  | Authorized of { epoch : int; lo : int; hi : int; next_duration : int }
  | Revoked of { epoch : int; hi : int; next_duration : int; acked : bool }

type t = {
  straggler_opt : bool;
  in_flight : (int, int) Hashtbl.t;  (* epoch -> count *)
  mutable orphans : int list;  (* ascending *)
  mutable state : state;
  mutable granted : int;
  mutable max_acked_revoke : int;
}

type action =
  | Ack of int
  | Closed of int
  | Opened of { epoch : int; lo : int; hi : int }
  | Changed

let create ~straggler_opt =
  { straggler_opt; in_flight = Hashtbl.create 8; orphans = []; state = Waiting;
    granted = 0; max_acked_revoke = 0 }

let granted t = t.granted

let in_flight t ~epoch =
  match Hashtbl.find t.in_flight epoch with n -> n | exception Not_found -> 0

let ack t epoch =
  if epoch > t.max_acked_revoke then t.max_acked_revoke <- epoch;
  epoch

let drained t =
  let acks =
    match t.state with
    | Revoked r when (not r.acked) && in_flight t ~epoch:r.epoch = 0 ->
        t.state <- Revoked { r with acked = true };
        [ ack t r.epoch ]
    | Revoked _ | Authorized _ | Waiting -> []
  in
  if t.orphans = [] then acks
  else
    let ready, rest =
      List.partition (fun e -> in_flight t ~epoch:e = 0) t.orphans
    in
    t.orphans <- rest;
    acks @ List.map (ack t) ready

let grant t ~epoch ~lo ~hi ~next_duration =
  if
    epoch <= t.granted || epoch <= t.max_acked_revoke
    || List.mem epoch t.orphans
  then []
  else begin
    (* Closes are delivered only here, so every epoch below the last
       accepted grant has been. *)
    let from = max 1 t.granted in
    t.granted <- epoch;
    t.state <- Authorized { epoch; lo; hi; next_duration };
    List.init (epoch - from) (fun i -> Closed (from + i))
    @ [ Opened { epoch; lo; hi }; Changed ]
  end

let revoke t ~epoch =
  let dup =
    match t.state with
    | Authorized a when a.epoch = epoch ->
        t.state <-
          Revoked
            { epoch; hi = a.hi; next_duration = a.next_duration;
              acked = false };
        []
    | Revoked r when r.epoch = epoch -> if r.acked then [ ack t epoch ] else []
    | Waiting | Authorized _ | Revoked _ ->
        if epoch < t.granted || epoch <= t.max_acked_revoke then [ ack t epoch ]
        else begin
          t.orphans <- List.sort_uniq compare (epoch :: t.orphans);
          []
        end
  in
  List.map (fun e -> Ack e) (dup @ drained t) @ [ Changed ]

let txn_started t ~epoch =
  Hashtbl.replace t.in_flight epoch (in_flight t ~epoch + 1)

let txn_finished t ~epoch =
  let n = in_flight t ~epoch in
  if n <= 0 then invalid_arg "Participant.txn_finished: not in flight";
  if n = 1 then Hashtbl.remove t.in_flight epoch
  else Hashtbl.replace t.in_flight epoch (n - 1);
  drained t

let window t ~now =
  match t.state with
  | Waiting -> None
  | Authorized { epoch; lo; hi; _ } ->
      if now > hi then None else Some { epoch; lo; hi; authorized = true }
  | Revoked { epoch; hi; next_duration; _ } ->
      if (not t.straggler_opt) || epoch + 1 <= t.max_acked_revoke then None
      else
        Some
          { epoch = epoch + 1; lo = hi + 1; hi = hi + next_duration;
            authorized = false }
