module Value = Functor_cc.Value
module Txn = Kernel.Txn

type cfg = {
  keys_per_partition : int;
  hot_keys : int;
}

(* Keys read and updated per transaction. *)
let rw_keys = 10

let cfg_of_contention_index ?(keys_per_partition = 100_000) ci =
  if ci <= 0.0 || ci > 1.0 then invalid_arg "Ycsb: contention index";
  let hot = int_of_float (Float.round (1.0 /. ci)) in
  let hot = if hot < 1 then 1 else hot in
  { keys_per_partition; hot_keys = hot }

let key ~partition idx = Keys.int2 "y:" partition ":" idx

(* Process-wide cache of key names, one array per partition.  Names depend
   only on (partition, idx), so the load phase and every generator — across
   figures run in the same process — share a single materialisation instead
   of sprintf-ing on every draw.  Rebuilt when the partition size changes. *)
let name_cache : (int, string array) Hashtbl.t = Hashtbl.create 16
let name_cache_size = ref 0

let names ~partition ~size =
  if !name_cache_size <> size then begin
    Hashtbl.reset name_cache;
    name_cache_size := size
  end;
  match Hashtbl.find_opt name_cache partition with
  | Some a -> a
  | None ->
      let a = Array.init size (fun i -> key ~partition i) in
      Hashtbl.add name_cache partition a;
      a

let register ~register:_ = ()

let load cfg ~n_servers ~put =
  for p = 0 to n_servers - 1 do
    let a = names ~partition:p ~size:cfg.keys_per_partition in
    for i = 0 to cfg.keys_per_partition - 1 do
      put a.(i) (Value.int 0)
    done
  done

type generator = {
  cfg : cfg;
  n_partitions : int;
  rng : Sim.Rng.t;
  part_names : string array array;  (* partition -> idx -> key name *)
}

let generator cfg ~n_partitions ~seed =
  if cfg.hot_keys > cfg.keys_per_partition then
    invalid_arg "Ycsb.generator: more hot keys than keys";
  { cfg; n_partitions; rng = Sim.Rng.create seed;
    part_names =
      Array.init n_partitions (fun p ->
          names ~partition:p ~size:cfg.keys_per_partition) }

(* One hot key plus (rw_keys/participants - 1) cold keys per partition;
   exactly one hot key per participant, as in Calvin's microbenchmark.
   Every transaction spans two partitions once there are two. *)
let draw_keys g ~fe =
  let cfg = g.cfg in
  let parts =
    if g.n_partitions > 1 then begin
      let other =
        let p = Sim.Rng.int g.rng (g.n_partitions - 1) in
        if p >= fe then p + 1 else p
      in
      [ fe; other ]
    end
    else [ fe ]
  in
  let per_part = List.length parts in
  let keys_per = rw_keys / per_part in
  List.concat_map
    (fun p ->
      let pn = g.part_names.(p) in
      let hot = pn.(Sim.Rng.int g.rng cfg.hot_keys) in
      let cold_range = cfg.keys_per_partition - cfg.hot_keys in
      let cold =
        List.init (keys_per - 1) (fun _ ->
            (* When every key is hot (CI at its minimum for this partition
               size) cold draws fall back to the whole keyspace. *)
            if cold_range <= 0 then
              pn.(Sim.Rng.int g.rng cfg.keys_per_partition)
            else pn.(cfg.hot_keys + Sim.Rng.int g.rng cold_range))
      in
      hot :: cold)
    parts
  |> List.sort_uniq String.compare

let gen g ~fe =
  let keys = draw_keys g ~fe in
  (* 10 ADD-1 ops — already static, so one description serves every
     engine. *)
  Txn.make (List.map (fun k -> (k, Txn.Add 1)) keys)

module Workload = struct
  let name = "ycsb"

  type nonrec cfg = cfg

  let register cfg ~register:reg =
    ignore (cfg : cfg);
    register ~register:reg

  let load cfg ~n_servers ~put = load cfg ~n_servers ~put

  let generator cfg ~n_servers ~seed =
    let g = generator cfg ~n_partitions:n_servers ~seed in
    fun ~fe -> gen g ~fe
end
