type 'e t = {
  mutable term : int;
  mutable applied : int;
  mutable held : (int * 'e) list;  (* ascending seq, each > applied + 1 *)
}

type verdict = Stale | Next | Held

let create ~term = { term; applied = 0; held = [] }
let term t = t.term
let applied t = t.applied

let crash t ~durable =
  t.held <- [];
  t.applied <- durable

(* There is no truncation protocol: a new primary's log replaces ours,
   which may hold entries it never acked. *)
let new_term t ~term =
  term > t.term
  && begin
    t.term <- term;
    crash t ~durable:0;
    true
  end

let ship t ~term ~seq e =
  if term <> t.term then Stale
  else if seq = t.applied + 1 then begin
    t.applied <- seq;
    Next
  end
  else begin
    if seq > t.applied then
      t.held <-
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) ((seq, e) :: t.held);
    Held
  end

let rec take t =
  match t.held with
  | (seq, e) :: rest when seq = t.applied + 1 ->
      t.held <- rest;
      t.applied <- seq;
      e :: take t
  | _ -> []
