type series = {
  mutable ts : int array;
  mutable vs : float array;
  mutable n : int;
}

type t = {
  interval : int;
  mutable metrics : Sim.Metrics.t option;
  mutable probes : (unit -> unit) list;  (* reverse registration order *)
  tbl : (string, series) Hashtbl.t;
}

let create ?(interval_us = 5_000) () =
  if interval_us <= 0 then invalid_arg "Gauges.create: interval_us";
  { interval = interval_us; metrics = None; probes = []; tbl = Hashtbl.create 16 }

let bind_metrics t m = t.metrics <- Some m

let add_probe t f = t.probes <- f :: t.probes

let series_of t name =
  match Hashtbl.find_opt t.tbl name with
  | Some s -> s
  | None ->
      let s = { ts = Array.make 64 0; vs = Array.make 64 0.0; n = 0 } in
      Hashtbl.add t.tbl name s;
      s

let push s ~now v =
  if s.n = Array.length s.ts then begin
    let cap = s.n * 2 in
    let ts = Array.make cap 0 and vs = Array.make cap 0.0 in
    Array.blit s.ts 0 ts 0 s.n;
    Array.blit s.vs 0 vs 0 s.n;
    s.ts <- ts;
    s.vs <- vs
  end;
  s.ts.(s.n) <- now;
  s.vs.(s.n) <- v;
  s.n <- s.n + 1

let sample t ~now =
  List.iter (fun f -> f ()) (List.rev t.probes);
  match t.metrics with
  | None -> ()
  | Some m ->
      List.iter
        (fun (name, v) -> push (series_of t name) ~now v)
        (Sim.Metrics.gauges m)

let arm t ~sim ~for_us =
  let horizon = Sim.Engine.now sim + for_us in
  let rec tick () =
    sample t ~now:(Sim.Engine.now sim);
    if Sim.Engine.now sim + t.interval <= horizon then
      Sim.Engine.after sim t.interval tick
  in
  Sim.Engine.after sim t.interval tick

let series t =
  Hashtbl.fold
    (fun name s acc ->
      let pts = List.init s.n (fun i -> (s.ts.(i), s.vs.(i))) in
      (name, pts) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let clear t = Hashtbl.iter (fun _ s -> s.n <- 0) t.tbl
