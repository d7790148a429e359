type time = int

type t = {
  agenda : (unit -> unit) Heap.t;
  mutable clock : time;
  mutable fired : int;
}

let create () =
  { agenda = Heap.create ~vacant:ignore (); clock = 0; fired = 0 }

let now t = t.clock

let schedule t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%d is in the past (now=%d)" at
         t.clock);
  Heap.add t.agenda ~priority:at f

let after t d f =
  if d < 0 then invalid_arg "Engine.after: negative delay";
  schedule t ~at:(t.clock + d) f

let run ?until t =
  let continue = ref true in
  while !continue do
    if Heap.is_empty t.agenda then continue := false
    else begin
      let at = Heap.min_priority t.agenda in
      match until with
      | Some h when at > h ->
          (* Leave the event queued; advance the clock to the horizon so
             that a subsequent [run] with a later horizon resumes cleanly. *)
          if h > t.clock then t.clock <- h;
          continue := false
      | Some _ | None ->
          let f = Heap.pop_min t.agenda in
          t.clock <- at;
          t.fired <- t.fired + 1;
          f ()
    end
  done

let events_fired t = t.fired
