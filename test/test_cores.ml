(* Reference-model properties of the pure decision cores (lib/cores):
   random inputs drive each core next to a small list-based model, and
   every returned action is checked against the protocol rule it
   implements. *)

let fail fmt = Printf.ksprintf QCheck2.Test.fail_report fmt
let fes = [ 0; 1; 2 ]

(* ---- epoch manager barrier -------------------------------------------- *)

module B = Cores.Barrier

type bop = Fire of int | Ack of int * int  (* frontend, epochs back *)

let gen_bops =
  let open QCheck2.Gen in
  list_size (int_range 1 150)
    (frequency
       [ (2, map (fun i -> Fire i) (int_range 0 3));
         (5, map2 (fun fe d -> Ack (fe, d)) (int_range 0 2) (int_range 0 2)) ])

(* Timers are fired in any order (each exactly once); acks may name an
   older epoch.  Model: the frontends that acked each revoked epoch. *)
let prop_barrier =
  QCheck2.Test.make ~name:"barrier closes e only after every ack for e"
    ~count:500 gen_bops (fun ops ->
      let b = B.create ~fes ~duration_us:100 in
      let timers = ref [] and acked = ref [] and last_grant = ref (0, -1) in
      let now = ref 0 in
      let perform actions =
        List.iter
          (function
            | B.Grant { epoch; lo; hi; _ } ->
                let e0, hi0 = !last_grant in
                if epoch <> e0 + 1 then fail "grant %d after %d" epoch e0;
                if lo <= hi0 || hi <> lo + 100 then
                  fail "grant %d window [%d, %d] after %d" epoch lo hi hi0;
                last_grant := (epoch, hi)
            | B.Revoke { epoch; dsts; retry = false } ->
                if dsts <> fes then fail "revoke %d to a subset" epoch;
                acked := (epoch, []) :: !acked
            | B.Revoke { epoch; dsts; retry = true } ->
                let missing =
                  List.filter
                    (fun fe -> not (List.mem fe (List.assoc epoch !acked)))
                    fes
                in
                if dsts <> missing then fail "resend %d to the wrong set" epoch
            | B.Closed { epoch; _ } ->
                if List.sort compare (List.assoc epoch !acked) <> fes then
                  fail "epoch %d closed before every ack" epoch
            | B.Wake_after { epoch; _ } -> timers := !timers @ [ epoch ]
            | B.Stale_ack -> ())
          actions
      in
      perform (B.start b ~local:0 ~lead_us:10);
      List.iter
        (fun op ->
          now := !now + 7;
          match op with
          | Fire i when !timers <> [] ->
              let k = i mod List.length !timers in
              let epoch = List.nth !timers k in
              timers := List.filteri (fun j _ -> j <> k) !timers;
              perform (B.wake b ~epoch ~now:!now)
          | Fire _ -> ()
          | Ack (fe, d) ->
              let epoch = B.current_epoch b - d in
              let switching = List.mem_assoc epoch !acked in
              let closed_before = B.epochs_closed b in
              (match List.assoc_opt epoch !acked with
              | Some l when not (List.mem fe l) ->
                  acked := (epoch, fe :: l) :: List.remove_assoc epoch !acked
              | Some _ | None -> ());
              perform (B.ack b ~src:fe ~epoch ~now:!now ~local:!now);
              (* the last missing ack of the epoch being switched closes it *)
              if
                switching && d = 0
                && List.length (List.assoc epoch !acked) = 3
                && B.epochs_closed b = closed_before
                && B.current_epoch b = epoch
              then fail "epoch %d not closed after every ack" epoch)
        ops;
      true)

(* ---- frontend authorization ------------------------------------------- *)

module A = Cores.Auth

type aop =
  | Em_revoke
  | Em_grant
  | Grant of int  (* epochs back from the EM's *)
  | Revoke of int
  | Start of int  (* local time offset *)
  | Finish of int

let gen_aops =
  let open QCheck2.Gen in
  list_size (int_range 1 150)
    (frequency
       [ (1, pure Em_revoke);
         (2, pure Em_grant);
         (3, map (fun d -> Grant d) (int_range 0 2));
         (3, map (fun d -> Revoke d) (int_range 0 2));
         (4, map (fun t -> Start t) (int_range 0 250));
         (4, map (fun i -> Finish i) (int_range 0 9)) ])

(* One frontend under an EM that revokes its epoch and grants the next
   once this frontend (and, implicitly, every other) acked.  The network
   loses, repeats and reorders: any grant or revoke the EM has sent may
   be delivered at any time.  Epoch [e]'s window is [100e, 100e + 99]
   with a next duration of 100.  Model: in-flight transactions, acked
   and delivered revokes, the last grant accepted and the closes
   delivered, which must be 1 .. (last grant - 1), each once, ascending,
   even when grants are lost. *)
let prop_auth =
  QCheck2.Test.make ~name:"auth acks only drained epochs, windows bounded"
    ~count:500
    ~print:(fun (_, ops) ->
      String.concat " "
        (List.map
           (function
             | Em_revoke -> "ER"
             | Em_grant -> "EG"
             | Grant d -> Printf.sprintf "G%d" d
             | Revoke d -> Printf.sprintf "R%d" d
             | Start t -> Printf.sprintf "S%d" t
             | Finish i -> Printf.sprintf "F%d" i)
           ops))
    QCheck2.Gen.(pair bool gen_aops)
    (fun (straggler_opt, ops) ->
      let a = A.create ~straggler_opt in
      let in_flight = ref [] and acked = ref [] and revoked = ref [] in
      let closed = ref 0 in
      let grant = ref None and em = ref 1 and em_revoked = ref false in
      let count e = List.length (List.filter (( = ) e) !in_flight) in
      let max_acked () = List.fold_left max 0 !acked in
      let perform actions =
        List.iter
          (function
            | A.Ack e ->
                if count e > 0 then
                  fail "acked %d with %d in flight" e (count e);
                acked := e :: !acked
            | A.Opened { epoch; lo; hi } ->
                if epoch <= max_acked () then
                  fail "grant %d accepted after its revoke was acked" epoch;
                if !closed <> epoch - 1 then
                  fail "grant %d opened with closes up to %d" epoch !closed;
                grant := Some (epoch, lo, hi)
            | A.Closed e ->
                if e <> !closed + 1 then
                  fail "close %d delivered after close %d" e !closed;
                closed := e
            | A.Changed -> ())
          actions
      in
      List.iter
        (fun op ->
          (match op with
          | Em_revoke -> em_revoked := true
          | Em_grant ->
              if !em_revoked && List.mem !em !acked then begin
                incr em;
                em_revoked := false
              end
          | Grant d ->
              let e = !em - d in
              if e >= 1 then
                perform
                  (A.grant a ~epoch:e ~lo:(100 * e) ~hi:((100 * e) + 99)
                     ~next_duration:100)
          | Revoke d ->
              let e = !em - d in
              if e >= 1 && (d > 0 || !em_revoked) then begin
                revoked := e :: !revoked;
                perform (A.revoke a ~epoch:e)
              end
          | Start dt -> (
              let g, glo, ghi =
                match !grant with Some g -> g | None -> (0, 0, 0)
              in
              let now = glo + dt in
              match A.window a ~now with
              | None -> ()
              | Some w ->
                  if List.mem w.A.epoch !acked then
                    fail "start in epoch %d after its revoke was acked"
                      w.A.epoch;
                  let ok =
                    if w.A.authorized then
                      w.A.epoch = g && w.A.lo = glo && w.A.hi = ghi
                      && now <= ghi
                    else
                      straggler_opt && List.mem g !revoked
                      && w.A.epoch = g + 1 && w.A.lo = ghi + 1
                      && w.A.hi = ghi + 100
                  in
                  if not ok then
                    fail "window %d [%d, %d] outside grant %d [%d, %d]"
                      w.A.epoch w.A.lo w.A.hi g glo ghi;
                  A.txn_started a ~epoch:w.A.epoch;
                  in_flight := w.A.epoch :: !in_flight)
          | Finish i when !in_flight <> [] ->
              let e = List.nth !in_flight (i mod List.length !in_flight) in
              let rec drop = function
                | x :: rest when x = e -> rest
                | x :: rest -> x :: drop rest
                | [] -> []
              in
              in_flight := drop !in_flight;
              perform (List.map (fun e -> A.Ack e) (A.txn_finished a ~epoch:e))
          | Finish _ -> ());
          (* a revoke is acked as soon as its epoch drains *)
          List.iter
            (fun e ->
              if count e = 0 && not (List.mem e !acked) then
                fail "revoke %d drained but not acked" e;
              if A.in_flight a ~epoch:e <> count e then
                fail "in_flight %d disagrees" e)
            !revoked)
        ops;
      true)

(* ---- close gate ------------------------------------------------------- *)

module G = Cores.Close_gate

type gop = Enter of int list | Durable of int * int | Crash

let gen_gops =
  let open QCheck2.Gen in
  let group = int_range 0 2 in
  list_size (int_range 1 120)
    (frequency
       [ (3, map (fun gs -> Enter gs) (list_size (int_range 0 3) group));
         (5, map2 (fun g d -> Durable (g, d)) group (int_range 0 3));
         (1, pure Crash) ])

(* Model: the groups each entered epoch waits on, how far each group is
   durable, and the epochs delivered so far. *)
let prop_close_gate =
  QCheck2.Test.make ~name:"close gate delivers each epoch once, in order"
    ~count:500 gen_gops (fun ops ->
      let g = G.create () in
      let entered = ref [] and durable = ref [] and delivered = ref [] in
      let next = ref 0 and now = ref 0 in
      let through grp = Option.value ~default:0 (List.assoc_opt grp !durable) in
      let ready e =
        List.for_all (fun grp -> through grp >= e) (List.assoc e !entered)
      in
      let deliver ~crash closes =
        List.iter
          (fun (c : G.close) ->
            if List.mem c.G.epoch !delivered then
              fail "epoch %d delivered twice" c.G.epoch;
            (match !delivered with
            | last :: _ when last > c.G.epoch ->
                fail "epoch %d delivered after %d" c.G.epoch last
            | _ -> ());
            if (not crash) && not (ready c.G.epoch) then
              fail "epoch %d delivered before its groups" c.G.epoch;
            delivered := c.G.epoch :: !delivered)
          closes
      in
      List.iter
        (fun op ->
          incr now;
          (match op with
          | Enter groups ->
              incr next;
              entered := (!next, groups) :: !entered;
              deliver ~crash:false
                (G.enter g ~epoch:!next ~groups ~now:!now)
          | Durable (grp, d) ->
              let epoch = max (through grp) (!next - d) in
              durable := (grp, epoch) :: List.remove_assoc grp !durable;
              deliver ~crash:false (G.durable g ~group:grp ~epoch)
          | Crash -> deliver ~crash:true (G.crash g));
          (* held: every undelivered epoch, the first of them not ready *)
          let held =
            List.filter (fun (e, _) -> not (List.mem e !delivered)) !entered
            |> List.map fst |> List.sort compare
          in
          if G.pending g <> held then fail "pending disagrees with the model";
          match held with
          | e :: _ when ready e -> fail "epoch %d ready but held" e
          | _ -> ())
        ops;
      deliver ~crash:true (G.crash g);
      List.length !delivered = !next
      || fail "%d entered, %d delivered" !next (List.length !delivered))

(* ---- follower log ----------------------------------------------------- *)

module F = Cores.Follower_log

type fop = Ship of int * int  (* term back, seq *) | Primary | Lose of int

let gen_fops =
  let open QCheck2.Gen in
  list_size (int_range 1 150)
    (frequency
       [ (8, map2 (fun d s -> Ship (d, s)) (int_range 0 1) (int_range 1 12));
         (1, pure Primary);
         (1, map (fun d -> Lose d) (int_range 0 12)) ])

(* Entries are (term, seq).  The driver's log is modelled as a list;
   after every step it must be exactly the current term's entries
   1..applied. *)
let prop_follower_log =
  QCheck2.Test.make ~name:"follower log is a contiguous prefix of its term"
    ~count:500 gen_fops (fun ops ->
      let f = F.create ~term:1 in
      let log = ref [] and primary = ref 1 in
      let ship ~term ~seq =
        if F.new_term f ~term then log := [];
        match F.ship f ~term ~seq (term, seq) with
        | F.Next ->
            log := !log @ ((term, seq) :: F.take f)
        | F.Held | F.Stale -> ()
      in
      let check () =
        let expect = List.init (F.applied f) (fun i -> (F.term f, i + 1)) in
        if !log <> expect then
          fail "log of %d entries is not term %d's prefix of %d"
            (List.length !log) (F.term f) (F.applied f)
      in
      List.iter
        (fun op ->
          (match op with
          | Ship (d, seq) -> ship ~term:(!primary - d) ~seq
          | Primary -> incr primary
          | Lose d ->
              let durable = max 0 (F.applied f - d) in
              log := List.filteri (fun i _ -> i < durable) !log;
              F.crash f ~durable);
          check ())
        ops;
      (* the current primary re-ships everything: the gap closes *)
      for seq = 12 downto 1 do
        ship ~term:!primary ~seq
      done;
      check ();
      F.applied f >= 12 || fail "stuck at %d after a re-ship" (F.applied f))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_barrier; prop_auth; prop_close_gate; prop_follower_log ]
