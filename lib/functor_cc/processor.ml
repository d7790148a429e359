type item = { key : Mvstore.Key.t; version : int }

(* epoch -> that epoch's items, newest first *)
type t = (int, item list ref) Hashtbl.t

let create () = Hashtbl.create 8

let buffer t ~epoch ~key ~version =
  let items =
    match Hashtbl.find_opt t epoch with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add t epoch r;
        r
  in
  items := { key; version } :: !items

let drain t ~upto_epoch =
  Hashtbl.fold
    (fun epoch items acc ->
      if epoch <= upto_epoch then (epoch, items) :: acc else acc)
    t []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (epoch, items) ->
         Hashtbl.remove t epoch;
         (epoch, List.rev !items))

let buffered t =
  Hashtbl.fold (fun _ items acc -> acc + List.length !items) t 0
