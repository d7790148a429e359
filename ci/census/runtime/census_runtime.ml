let modules = ref []

let register sites =
  let counts = Array.make (Array.length sites) 0 in
  modules := (sites, counts) :: !modules;
  counts

(* One file per process under $CENSUS_DIR, a [count site] line per site;
   an instrumented process started without CENSUS_DIR writes nothing.
   Counter increments from several domains may race and lose hits, which
   never turns a reached site into an unreached one. *)
let dump () =
  match Sys.getenv_opt "CENSUS_DIR" with
  | None -> ()
  | Some dir ->
      let path = Filename.temp_file ~temp_dir:dir "census-" ".txt" in
      let oc = open_out path in
      List.iter
        (fun (sites, counts) ->
          Array.iteri
            (fun i site -> Printf.fprintf oc "%d %s\n" counts.(i) site)
            sites)
        !modules;
      close_out oc

let () = at_exit dump
