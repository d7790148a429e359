type t =
  | Int of int
  | Float of float
  | Str of string
  | Tup of t list

(* The small ints that rows are made of (counts, quantities, ids,
   prices) get one box each, allocated once and shared by every value
   that holds them.  Values are immutable, so no caller can tell a
   shared box from a fresh one. *)
let small_ints = Array.init 1024 (fun i -> Int i)

let int i =
  if i >= 0 && i < Array.length small_ints then Array.unsafe_get small_ints i
  else Int i

let float f = Float f
let str s = Str s
let tup l = Tup l

let type_name = function
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "str"
  | Tup _ -> "tup"

let type_error expected v =
  invalid_arg
    (Printf.sprintf "Value: expected %s, got %s" expected (type_name v))

let to_int = function Int i -> i | v -> type_error "int" v

let to_str = function Str s -> s | v -> type_error "str" v

let to_tup = function Tup l -> l | v -> type_error "tup" v

let nth v i =
  match v with
  | Tup l ->
      (* A negative index never reaches 0, so it fails at the end. *)
      let rec walk j = function
        | x :: rest -> if j = 0 then x else walk (j - 1) rest
        | [] -> invalid_arg (Printf.sprintf "Value.nth: index %d" i)
      in
      walk i l
  | v -> type_error "tup" v

let equal (a : t) b = a = b

let rec pp fmt = function
  | Int i -> Format.pp_print_int fmt i
  | Float f -> Format.fprintf fmt "%g" f
  | Str s -> Format.fprintf fmt "%S" s
  | Tup l ->
      Format.fprintf fmt "(@[%a@])"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ")
           pp)
        l

let to_string v = Format.asprintf "%a" pp v
