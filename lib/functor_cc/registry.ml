type ctx = {
  key : string;
  version : int;
  reads : (string * Value.t option) list;
  args : Value.t list;
}

let read ctx key =
  match List.assoc_opt key ctx.reads with
  | Some v -> v
  | None -> raise Not_found

let arg ctx i =
  (* A negative index never reaches 0, so it fails at the end. *)
  let rec walk j = function
    | v :: rest -> if j = 0 then v else walk (j - 1) rest
    | [] -> invalid_arg (Printf.sprintf "Registry.arg: index %d" i)
  in
  walk i ctx.args

type dep_write =
  | Dep_put of Value.t
  | Dep_delete
  | Dep_skip

type outcome =
  | Commit of Value.t
  | Abort
  | Delete
  | Commit_det of Value.t * (string * dep_write) list

type handler = ctx -> outcome

(* Domain safety (--runtime real): registration happens at deployment
   time, before the cluster starts — the table is read-only once worker
   domains exist, so [find] stays lock-free (concurrent [Hashtbl]
   readers are safe when nobody writes).  The mutex makes the
   registration phase itself safe should two setup paths race, and keeps
   the duplicate check atomic with the insert. *)
type t = { handlers : (string, handler) Hashtbl.t; lock : Mutex.t }

let create () = { handlers = Hashtbl.create 32; lock = Mutex.create () }

let register t name handler =
  Mutex.lock t.lock;
  if Hashtbl.mem t.handlers name then begin
    Mutex.unlock t.lock;
    invalid_arg (Printf.sprintf "Registry.register: duplicate handler %S" name)
  end;
  Hashtbl.add t.handlers name handler;
  Mutex.unlock t.lock

let find t name = Hashtbl.find_opt t.handlers name

let with_builtins = create
