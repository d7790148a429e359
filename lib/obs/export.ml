(* Hand-rolled JSON: the repo takes no json dependency (same convention
   as Harness.Report). *)

let jescape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jfloat v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.6g" v

type emitter = { buf : Buffer.t; mutable first : bool }

let start_events buf =
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  { buf; first = true }

let add_event e json =
  if e.first then e.first <- false else Buffer.add_char e.buf ',';
  Buffer.add_string e.buf "\n  ";
  Buffer.add_string e.buf json

let finish_events e =
  Buffer.add_string e.buf "\n]}\n";
  Buffer.contents e.buf

(* The tid lanes transactions are folded onto. *)
let shards = 64

let tid_of txn = if txn < 0 then 0 else txn mod shards

let chrome_trace ?(engine = "aloha") ?ledger ~trace ~gauges () =
  let e = start_events (Buffer.create 65536) in
  (* Process metadata: one pid per node seen in the trace. *)
  let nodes = Hashtbl.create 16 in
  Trace.iter trace ~f:(fun ev ->
      if not (Hashtbl.mem nodes ev.Trace.node) then
        Hashtbl.replace nodes ev.Trace.node ());
  Hashtbl.fold (fun n () acc -> n :: acc) nodes []
  |> List.sort compare
  |> List.iter (fun n ->
         add_event e
           (Printf.sprintf
              "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":%d,\
               \"tid\":0,\"args\":{\"name\":\"%s node %d\"}}"
              n (jescape engine) n));
  (* Instant events, one per recorded lifecycle stage. *)
  Trace.iter trace ~f:(fun ev ->
      let open Trace in
      let args = Buffer.create 48 in
      Buffer.add_string args (Printf.sprintf "{\"txn\":%d" ev.txn);
      if ev.arg >= 0 then
        Buffer.add_string args (Printf.sprintf ",\"epoch\":%d" ev.arg);
      if ev.tag <> 0 then Buffer.add_string args ",\"fault\":1";
      Buffer.add_char args '}';
      add_event e
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"i\",\"ts\":%d,\"pid\":%d,\"tid\":%d,\
            \"s\":\"t\",\"args\":%s}"
           (stage_name ev.stage) ev.ts ev.node
           (tid_of ev.txn)
           (Buffer.contents args)));
  (* One "X" span per sampled transaction: first stage to last stage. *)
  let spans = Hashtbl.create 256 in
  Trace.iter trace ~f:(fun ev ->
      let open Trace in
      if ev.txn >= 0 then
        match Hashtbl.find_opt spans ev.txn with
        | None -> Hashtbl.replace spans ev.txn (ev.ts, ev.ts, ev.node, ev.tag)
        | Some (lo, hi, node, tag) ->
            Hashtbl.replace spans ev.txn
              (min lo ev.ts, max hi ev.ts, node, tag lor ev.tag));
  Hashtbl.fold (fun txn span acc -> (txn, span) :: acc) spans []
  |> List.sort compare
  |> List.iter (fun (txn, (lo, hi, node, tag)) ->
         if hi > lo then
           add_event e
             (Printf.sprintf
                "{\"name\":\"txn %d\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\
                 \"pid\":%d,\"tid\":%d,\"args\":{\"txn\":%d%s}}"
                txn lo (hi - lo) node
                (tid_of txn) txn
                (if tag <> 0 then ",\"fault\":1" else "")));
  (* Per-worker runtime tracks: each [--runtime real] stratum recorded in
     the epoch ledger becomes one B/E span per worker that did work in
     it, on tid lanes above the transaction shards (tid = shards + worker
     index, so lanes never collide).  Stratum bounds are host wall-clock,
     rebased to the first stratum so the lanes start near the sim
     origin. *)
  (match ledger with
  | None -> ()
  | Some l ->
      let strata = Ledger.strata l in
      let base =
        List.fold_left
          (fun acc s -> min acc s.Ledger.s_t0_us)
          max_int strata
      in
      let lanes = Hashtbl.create 16 in
      List.iter
        (fun s ->
          Array.iteri
            (fun w _ ->
              if not (Hashtbl.mem lanes (s.Ledger.s_node, w)) then
                Hashtbl.replace lanes (s.Ledger.s_node, w) ())
            s.Ledger.s_workers)
        strata;
      Hashtbl.fold (fun k () acc -> k :: acc) lanes []
      |> List.sort compare
      |> List.iter (fun (node, w) ->
             add_event e
               (Printf.sprintf
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\
                   \"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"worker %d\"}}"
                  node (shards + w) w));
      List.iter
        (fun s ->
          let open Ledger in
          let t0 = s.s_t0_us - base in
          let t1 = max t0 (s.s_t1_us - base) in
          Array.iteri
            (fun w completed ->
              if completed > 0 then begin
                let tid = shards + w in
                add_event e
                  (Printf.sprintf
                     "{\"name\":\"stratum %d\",\"ph\":\"B\",\"ts\":%d,\
                      \"pid\":%d,\"tid\":%d,\"args\":{\"size\":%d,\
                      \"completed\":%d}}"
                     s.s_size t0 s.s_node tid s.s_size completed);
                add_event e
                  (Printf.sprintf
                     "{\"name\":\"stratum %d\",\"ph\":\"E\",\"ts\":%d,\
                      \"pid\":%d,\"tid\":%d}"
                     s.s_size t1 s.s_node tid)
              end)
            s.s_workers)
        strata);
  (* Gauge series become counter tracks on pid 0. *)
  (match gauges with
  | None -> ()
  | Some g ->
      List.iter
        (fun (name, pts) ->
          List.iter
            (fun (ts, v) ->
              add_event e
                (Printf.sprintf
                   "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%d,\"pid\":0,\
                    \"args\":{\"value\":%s}}"
                   (jescape name) ts (jfloat v)))
            pts)
        (Gauges.series g));
  finish_events e

let write_chrome_trace ~path ?engine ?ledger ~trace ~gauges () =
  let doc = chrome_trace ?engine ?ledger ~trace ~gauges () in
  let oc = open_out path in
  output_string oc doc;
  close_out oc

type rollup_row = {
  epoch : int;
  assigned : int;
  functor_writes : int;
  batch_acks : int;
  close_ts : int;
}

let epoch_rollup trace =
  let tbl = Hashtbl.create 32 in
  let row epoch =
    match Hashtbl.find_opt tbl epoch with
    | Some r -> r
    | None ->
        let r =
          ref { epoch; assigned = 0; functor_writes = 0; batch_acks = 0;
                close_ts = -1 }
        in
        Hashtbl.replace tbl epoch r;
        r
  in
  Trace.iter trace ~f:(fun ev ->
      let open Trace in
      if ev.arg >= 0 then
        match ev.stage with
        | Epoch_assign ->
            let r = row ev.arg in
            r := { !r with assigned = !r.assigned + 1 }
        | Functor_write ->
            let r = row ev.arg in
            r := { !r with functor_writes = !r.functor_writes + 1 }
        | Batch_ack ->
            let r = row ev.arg in
            r := { !r with batch_acks = !r.batch_acks + 1 }
        | Epoch_close ->
            let r = row ev.arg in
            r := { !r with close_ts = ev.ts }
        | _ -> ());
  Hashtbl.fold (fun _ r acc -> !r :: acc) tbl []
  |> List.sort (fun a b -> compare a.epoch b.epoch)

let pp_rollup fmt rows =
  Format.fprintf fmt "%8s %10s %10s %10s %12s@."
    "epoch" "assigned" "functors" "acks" "close_us";
  List.iter
    (fun r ->
      Format.fprintf fmt "%8d %10d %10d %10d %12s@."
        r.epoch r.assigned r.functor_writes r.batch_acks
        (if r.close_ts < 0 then "-" else string_of_int r.close_ts))
    rows
