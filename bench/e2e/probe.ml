(* Outside-the-program measurement helpers shared by every workload:
   a monotonic host clock, order statistics, and the named-metric
   accumulator that the executable prints as one JSON record. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns /. 1e9

(* Nearest-rank percentile of an ascending array; 0 for an empty one. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  percentile_sorted a p

(* The mean of the two middle values for an even count. *)
let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio num den = if den = 0. then 0. else num /. den
let per num den = ratio (float_of_int num) (float_of_int den)

(* Host memory high-water mark of this process, from /proc. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* GC work over a window, from [Gc.quick_stat] snapshots. *)
type gc = { minor_words : float; major_words : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words;
    major_words = s.Gc.major_words;
    major_collections = s.Gc.major_collections }

let gc_since g0 =
  let g1 = gc_now () in
  { minor_words = g1.minor_words -. g0.minor_words;
    major_words = g1.major_words -. g0.major_words;
    major_collections = g1.major_collections - g0.major_collections }

(* ---- repetitions --------------------------------------------------------- *)

(* One repetition of a workload.  [host] values vary from run to run and
   are summarised by their median over repetitions; [sim] values are
   functions of the seed alone and must repeat exactly. *)
type rep = {
  host : (string * float) list;
  sim : (string * float) list;
  attempted : int;
  failed : int;
  failures : string list;
}

let host_values reps name = List.map (fun r -> List.assoc name r.host) reps
let host_median reps name = median (host_values reps name)

let sim_value reps name =
  match reps with [] -> 0. | r :: _ -> List.assoc name r.sim

(* The end-to-end simulated results: every run of the same simulated
   input reports them identically, however the host side is configured
   (tracing attached, replication on a fault-free network, domain
   count). *)
let sim_results = [ "sim_tps"; "sim_p50_ms"; "sim_p999_ms"; "sim_samples"; "failed_frac" ]

(* Every simulated value of [reps] must equal the first repetition's, and
   the {!sim_results} of [others] must equal them too. *)
let determinism_failures ~label ?(others = []) reps =
  let differ first names r =
    List.filter_map
      (fun (name, v) ->
        match List.assoc_opt name first.sim with
        | Some v0 when List.mem name names && not (Float.equal v v0) ->
            Some
              (Printf.sprintf "%s: %s not deterministic (%.17g vs %.17g)" label
                 name v0 v)
        | Some _ | None -> None)
      r.sim
  in
  match reps with
  | [] -> []
  | first :: _ ->
      let all = List.map fst first.sim in
      List.concat_map (differ first all) reps
      @ List.concat_map (differ first sim_results) others

(* ---- the metric record ------------------------------------------------- *)

type metrics = { mutable rows : (string * float * string) list }

let metrics () = { rows = [] }

let add m name unit value =
  if not (Float.is_finite value) then
    failwith (Printf.sprintf "metric %s is not finite" name);
  m.rows <- (name, value, unit) :: m.rows

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* %.17g keeps every digit; integral values print without an exponent. *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metrics_json m =
  List.rev m.rows
  |> List.map (fun (name, value, unit) ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
           (json_float value) (json_string unit))
  |> String.concat ", "
  |> Printf.sprintf "{%s}"
