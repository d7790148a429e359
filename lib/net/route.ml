(* Crash-aware partition routing.

   With replication each partition is served by a replication group: an
   ordered list of member addresses registered once at cluster setup
   (index 0 is the initial primary).  [resolve] names the member every
   frontend should currently address for that partition; failover moves
   it by calling [promote], which also bumps the partition's term — a
   generation counter that lets replicas discard stale WAL shipments
   from a deposed primary.

   The table itself is a plain control-plane structure: it models the
   routing state a membership service would hold, so reads and updates
   are deliberately not subject to simulated network faults. *)

type group = {
  members : Address.t array;  (* registration order; [0] = initial primary *)
  mutable primary : Address.t;
  mutable term : int;
}

type t = { groups : group option array }

let create ~partitions =
  if partitions < 1 then invalid_arg "Route.create: partitions < 1";
  { groups = Array.make partitions None }

let group t ~partition =
  match t.groups.(partition) with
  | Some g -> g
  | None -> invalid_arg "Route: partition has no registered group"

let register t ~partition members =
  if members = [] then invalid_arg "Route.register: empty group";
  if t.groups.(partition) <> None then
    invalid_arg "Route.register: group already registered";
  t.groups.(partition) <-
    Some { members = Array.of_list members; primary = List.hd members; term = 1 }

let resolve t ~partition = (group t ~partition).primary
let term t ~partition = (group t ~partition).term
let members t ~partition = Array.to_list (group t ~partition).members

let groups_of t addr =
  List.filter
    (fun partition ->
      Array.exists (Address.equal addr) (group t ~partition).members)
    (List.init (Array.length t.groups) Fun.id)

(* First live member in registration order that is not [avoid]; the
   deterministic successor rule every run agrees on. *)
let find_successor t ~partition ~live ~avoid =
  let g = group t ~partition in
  let n = Array.length g.members in
  let rec scan i =
    if i >= n then None
    else
      let m = g.members.(i) in
      if (not (Address.equal m avoid)) && live m then Some m else scan (i + 1)
  in
  scan 0

let promote t ~partition ~to_ =
  let g = group t ~partition in
  if not (Array.exists (Address.equal to_) g.members) then
    invalid_arg "Route.promote: target is not a group member";
  g.primary <- to_;
  g.term <- g.term + 1;
  g.term
