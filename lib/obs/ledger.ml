type group_row = {
  g_partition : int;
  mutable g_ship_lags : int list;
  mutable g_gate_wait_us : int;
  mutable g_ack_floor : int;
  mutable g_live_followers : int;
  mutable g_degraded : bool;
}

type plan_row = {
  pl_nodes : int;
  pl_edges : int;
  pl_strata : int;
}

type row = {
  r_epoch : int;
  r_node : int;
  mutable r_open_us : int;
  mutable r_close_us : int;
  mutable r_wall_open_us : int;
  mutable r_wall_close_us : int;
  mutable r_assigned : int;
  mutable r_fast_commits : int;
  mutable r_fast_merges : int;
  mutable r_watermark : int;
  mutable r_watermark_lag_us : int;
  mutable r_groups : group_row list;
  mutable r_plan : plan_row option;
}

type event_kind = Crash | Restart | Detect | Promote | First_commit

type event = {
  e_kind : event_kind;
  e_node : int;
  e_t_us : int;
  e_partition : int;
}

type t = {
  mutable cfg_epoch_us : int;
  mutable nodes : int;
  mutable replicas : int;
  tbl : (int * int, row) Hashtbl.t;  (* (epoch, node) -> row *)
  mutable evs : event list;  (* newest first *)
  watch : (int, unit) Hashtbl.t;  (* partitions awaiting first commit *)
}

let create () =
  { cfg_epoch_us = 0; nodes = 0; replicas = 1;
    tbl = Hashtbl.create 256;
    evs = [];
    watch = Hashtbl.create 4 }

let set_meta t ~cfg_epoch_us ~nodes ~replicas =
  t.cfg_epoch_us <- cfg_epoch_us;
  t.nodes <- nodes;
  t.replicas <- replicas

let wall_us () = int_of_float (Unix.gettimeofday () *. 1e6)

let row t ~node ~epoch =
  let key = (epoch, node) in
  match Hashtbl.find_opt t.tbl key with
  | Some r -> r
  | None ->
      let r =
        { r_epoch = epoch; r_node = node; r_open_us = -1; r_close_us = -1;
          r_wall_open_us = -1; r_wall_close_us = -1; r_assigned = 0;
          r_fast_commits = 0; r_fast_merges = 0; r_watermark = -1;
          r_watermark_lag_us = 0; r_groups = []; r_plan = None }
      in
      Hashtbl.replace t.tbl key r;
      r

let group r ~partition =
  match
    List.find_opt (fun g -> g.g_partition = partition) r.r_groups
  with
  | Some g -> g
  | None ->
      let g =
        { g_partition = partition; g_ship_lags = []; g_gate_wait_us = -1;
          g_ack_floor = -1; g_live_followers = -1; g_degraded = false }
      in
      r.r_groups <- g :: r.r_groups;
      g

let note_open t ~node ~epoch ~t_us =
  let r = row t ~node ~epoch in
  r.r_open_us <- t_us;
  r.r_wall_open_us <- wall_us ()

let note_assigned t ~node ~epoch =
  let r = row t ~node ~epoch in
  r.r_assigned <- r.r_assigned + 1

let note_fast_commit t ~node ~epoch =
  let r = row t ~node ~epoch in
  r.r_fast_commits <- r.r_fast_commits + 1

let note_fast_merges t ~node ~epoch ~count =
  if count > 0 then begin
    let r = row t ~node ~epoch in
    r.r_fast_merges <- r.r_fast_merges + count
  end

let note_ship_lag t ~node ~epoch ~partition ~lag_us =
  let g = group (row t ~node ~epoch) ~partition in
  g.g_ship_lags <- lag_us :: g.g_ship_lags

let note_gate_wait t ~node ~epoch ~partition ~wait_us =
  let g = group (row t ~node ~epoch) ~partition in
  g.g_gate_wait_us <- wait_us

let note_group t ~node ~epoch ~partition ~ack_floor ~live_followers
    ~degraded =
  let g = group (row t ~node ~epoch) ~partition in
  g.g_ack_floor <- ack_floor;
  g.g_live_followers <- live_followers;
  g.g_degraded <- degraded

let note_plan t ~node ~epoch ~nodes ~edges ~strata =
  let r = row t ~node ~epoch in
  r.r_plan <- Some { pl_nodes = nodes; pl_edges = edges; pl_strata = strata }

let note_close t ~node ~epoch ~t_us ~watermark ~watermark_lag_us =
  let r = row t ~node ~epoch in
  r.r_close_us <- t_us;
  r.r_wall_close_us <- wall_us ();
  r.r_watermark <- watermark;
  r.r_watermark_lag_us <- watermark_lag_us

let note_event t ~kind ~node ~t_us ?(partition = -1) () =
  t.evs <-
    { e_kind = kind; e_node = node; e_t_us = t_us; e_partition = partition }
    :: t.evs;
  if kind = Promote && partition >= 0 then
    Hashtbl.replace t.watch partition ()

let awaiting_first_commit t = Hashtbl.length t.watch > 0

let note_commit t ~node ~t_us ~partitions =
  List.iter
    (fun p ->
      if Hashtbl.mem t.watch p then begin
        Hashtbl.remove t.watch p;
        note_event t ~kind:First_commit ~node ~t_us ~partition:p ()
      end)
    partitions

let rows t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.tbl []
  |> List.sort (fun a b ->
         match Int.compare a.r_epoch b.r_epoch with
         | 0 -> Int.compare a.r_node b.r_node
         | c -> c)

let events t = List.rev t.evs

let kind_name = function
  | Crash -> "crash"
  | Restart -> "restart"
  | Detect -> "detect"
  | Promote -> "promote"
  | First_commit -> "first_commit"

let clear t =
  Hashtbl.reset t.tbl;
  t.evs <- [];
  Hashtbl.reset t.watch

(* ---- JSONL rendering ---------------------------------------------------- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then -1
  else sorted.(min (n - 1) (p * n / 100))

let group_json g =
  let sorted = Array.of_list g.g_ship_lags in
  Array.sort Int.compare sorted;
  Printf.sprintf
    "{\"group\":%d,\"ships\":%d,\"ship_p50_us\":%d,\"ship_p99_us\":%d,\
     \"gate_wait_us\":%d,\"ack_floor\":%d,\"live_followers\":%d,\
     \"degraded\":%b}"
    g.g_partition (Array.length sorted)
    (percentile sorted 50) (percentile sorted 99)
    g.g_gate_wait_us g.g_ack_floor g.g_live_followers g.g_degraded

let row_json t r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"type\":\"epoch\",\"epoch\":%d,\"node\":%d,\"open_us\":%d,\
        \"close_us\":%d,\"wall_open_us\":%d,\"wall_close_us\":%d"
       r.r_epoch r.r_node r.r_open_us r.r_close_us r.r_wall_open_us
       r.r_wall_close_us);
  (* Stretch vs the configured duration, in thousandths (ints keep the
     renderer locale-proof); -1 when either bound is missing. *)
  let stretch =
    if r.r_open_us >= 0 && r.r_close_us >= 0 && t.cfg_epoch_us > 0 then
      (r.r_close_us - r.r_open_us) * 1000 / t.cfg_epoch_us
    else -1
  in
  Buffer.add_string b
    (Printf.sprintf
       ",\"stretch_millis\":%d,\"assigned\":%d,\"fast_commits\":%d,\
        \"fast_merges\":%d,\"watermark\":%d,\"watermark_lag_us\":%d"
       stretch r.r_assigned r.r_fast_commits r.r_fast_merges r.r_watermark
       r.r_watermark_lag_us);
  (match r.r_plan with
  | None -> ()
  | Some p ->
      Buffer.add_string b
        (Printf.sprintf
           ",\"plan\":{\"nodes\":%d,\"edges\":%d,\"strata\":%d}"
           p.pl_nodes p.pl_edges p.pl_strata));
  if r.r_groups <> [] then begin
    Buffer.add_string b ",\"groups\":[";
    List.iteri
      (fun i g ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (group_json g))
      (List.sort
         (fun a b -> Int.compare a.g_partition b.g_partition)
         r.r_groups)
    ;
    Buffer.add_char b ']'
  end;
  Buffer.add_char b '}';
  Buffer.contents b

let event_json ev =
  Printf.sprintf
    "{\"type\":\"event\",\"kind\":\"%s\",\"node\":%d,\"t_us\":%d,\
     \"partition\":%d}"
    (kind_name ev.e_kind) ev.e_node ev.e_t_us ev.e_partition

let to_lines t =
  let meta =
    Printf.sprintf
      "{\"type\":\"meta\",\"cfg_epoch_us\":%d,\"nodes\":%d,\"replicas\":%d}"
      t.cfg_epoch_us t.nodes t.replicas
  in
  (meta :: List.map (row_json t) (rows t)) @ List.map event_json (events t)
