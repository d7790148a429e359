type close = {
  epoch : int;
  entered : int;
  groups : int list;
  mutable waiting : int list;
}

type t = { mutable pending : close list  (* ascending epoch *) }

let create () = { pending = [] }

(* Deliver the ascending prefix of closes that wait on nothing. *)
let rec ready t =
  match t.pending with
  | c :: rest when c.waiting = [] ->
      t.pending <- rest;
      c :: ready t
  | _ -> []

let enter t ~epoch ~groups ~now =
  let c = { epoch; groups; entered = now; waiting = groups } in
  t.pending <- t.pending @ [ c ];
  ready t

let durable t ~group ~epoch =
  List.iter
    (fun c ->
      if c.epoch <= epoch then
        c.waiting <- List.filter (fun g -> g <> group) c.waiting)
    t.pending;
  ready t

let crash t =
  List.iter (fun c -> c.waiting <- []) t.pending;
  ready t

let pending t = List.map (fun c -> c.epoch) t.pending
