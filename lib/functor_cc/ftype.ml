type t =
  | Value
  | Aborted
  | Deleted
  | Add
  | Subtr
  | Max
  | Min
  | User of string
  | Dep_marker of Mvstore.Key.t

let is_final = function
  | Value | Aborted | Deleted -> true
  | Add | Subtr | Max | Min | User _ | Dep_marker _ -> false

let table_i =
  [ ("VALUE", "the literal value of the key");
    ("ABORTED", "none");
    ("DELETED", "none");
    ("ADD/SUBTR", "numerical (e.g., increment value by 1)");
    ("MAX/MIN", "numerical (e.g., update the value if it is smaller)");
    ("user-defined", "read set and arguments") ]
