type time = int

type t = {
  agenda : (unit -> unit) Heap.t;
  mutable clock : time;
  mutable stopped : bool;
  mutable fired : int;
}

let create () =
  { agenda = Heap.create ~vacant:ignore (); clock = 0; stopped = false;
    fired = 0 }

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
  t.stopped <- false;
  let continue = ref true in
  while !continue && not t.stopped do
    match Heap.peek_priority t.agenda with
    | None -> continue := false
    | Some at ->
        let past_horizon =
          match until with None -> false | Some h -> at > h
        in
        if past_horizon then begin
          (* Leave the event queued; advance the clock to the horizon so
             that a subsequent [run] with a later horizon resumes cleanly. *)
          (match until with Some h -> if h > t.clock then t.clock <- h | None -> ());
          continue := false
        end
        else begin
          match Heap.pop t.agenda with
          | None -> continue := false
          | Some (at, f) ->
              t.clock <- at;
              t.fired <- t.fired + 1;
              f ()
        end
  done

let stop t = t.stopped <- true

let pending t = Heap.length t.agenda

let events_fired t = t.fired
