(* The branch census rewriter.  Every counted site gets one slot of a
   per-module [int array] that [Census_runtime.register] returns; running
   the site adds one to its slot.  A site is a match or function arm
   ([match], [function]), a try handler ([try]), a then or else branch
   (an absent else counts as [else ()]) and the body of a [fun].  Each is
   described as [file:line:col kind binding pattern]: [binding] is the
   dotted path of enclosing modules and named let-bindings, [pattern] the
   arm's pattern and guard, the branch's condition, or [-] for a body. *)

open Ppxlib

let counts_var = "__census_counts"

let one_line s =
  String.split_on_char ' '
    (String.map (function '\n' | '\t' | '\r' -> ' ' | c -> c) s)
  |> List.filter (( <> ) "")
  |> String.concat " "

let text pp x =
  let s = one_line (Format.asprintf "%a" pp x) in
  if String.length s <= 80 then s else String.sub s 0 77 ^ "..."

let case_text c =
  match c.pc_guard with
  | None -> text Pprintast.pattern c.pc_lhs
  | Some g ->
      text Pprintast.pattern c.pc_lhs ^ " when " ^ text Pprintast.expression g

let unreachable e =
  match e.pexp_desc with Pexp_unreachable -> true | _ -> false

class rewriter file =
  object (self)
    inherit Ast_traverse.map as super
    val mutable path = []
    val mutable sites = []
    val mutable n = 0
    method sites = Array.of_list (List.rev sites)

    method private within : 'a. string -> (unit -> 'a) -> 'a =
      fun name f ->
      let saved = path in
      path <- name :: path;
      let r = f () in
      path <- saved;
      r

    (* [e] preceded by its site's increment. *)
    method private count ~loc kind what e =
      let i = n in
      let pos = loc.loc_start in
      let binding = match path with [] -> "-" | p -> String.concat "." (List.rev p) in
      sites <-
        Printf.sprintf "%s:%d:%d %s %s %s" file pos.pos_lnum
          (pos.pos_cnum - pos.pos_bol)
          kind binding what
        :: sites;
      n <- n + 1;
      let loc = { loc with loc_ghost = true } in
      let idx = Ast_builder.Default.eint ~loc i in
      let arr = Ast_builder.Default.evar ~loc counts_var in
      [%expr
        Array.unsafe_set [%e arr] [%e idx] (Array.unsafe_get [%e arr] [%e idx] + 1);
        [%e e]]

    method private arms kind cases =
      List.map
        (fun c ->
          let c = self#case c in
          if unreachable c.pc_rhs then c
          else
            {
              c with
              pc_rhs = self#count ~loc:c.pc_lhs.ppat_loc kind (case_text c) c.pc_rhs;
            })
        cases

    method! module_binding mb =
      match mb.pmb_name.txt with
      | Some name -> self#within name (fun () -> super#module_binding mb)
      | None -> super#module_binding mb

    method! value_binding vb =
      let rec name p =
        match p.ppat_desc with
        | Ppat_var v -> Some v.txt
        | Ppat_constraint (p, _) -> name p
        | _ -> None
      in
      match name vb.pvb_pat with
      | Some v -> self#within v (fun () -> super#value_binding vb)
      | None -> super#value_binding vb

    method! expression e =
      let loc = e.pexp_loc in
      match e.pexp_desc with
      | Pexp_match (scrut, cases) ->
          { e with pexp_desc = Pexp_match (self#expression scrut, self#arms "match" cases) }
      | Pexp_try (body, cases) ->
          { e with pexp_desc = Pexp_try (self#expression body, self#arms "try" cases) }
      | Pexp_function (params, c, Pfunction_cases (cases, l, attrs)) ->
          let params = List.map self#function_param params in
          let c = Option.map self#type_constraint c in
          {
            e with
            pexp_desc =
              Pexp_function (params, c, Pfunction_cases (self#arms "function" cases, l, attrs));
          }
      | Pexp_function (params, c, Pfunction_body body) ->
          let params = List.map self#function_param params in
          let c = Option.map self#type_constraint c in
          let body = self#expression body in
          let body =
            if unreachable body then body else self#count ~loc:body.pexp_loc "body" "-" body
          in
          { e with pexp_desc = Pexp_function (params, c, Pfunction_body body) }
      | Pexp_ifthenelse (cond, th, el) ->
          let what = text Pprintast.expression cond in
          let cond = self#expression cond in
          let th = self#count ~loc:th.pexp_loc "then" what (self#expression th) in
          let el =
            match el with
            | Some el -> self#count ~loc:el.pexp_loc "else" what (self#expression el)
            | None -> self#count ~loc "else" what [%expr ()]
          in
          { e with pexp_desc = Pexp_ifthenelse (cond, th, Some el) }
      | _ -> super#expression e
  end

let impl (str : structure) =
  match str with
  | [] -> str
  | first :: _ ->
      let loc = { first.pstr_loc with loc_ghost = true } in
      let r = new rewriter loc.loc_start.pos_fname in
      let str = r#structure str in
      let sites = r#sites in
      if Array.length sites = 0 then str
      else
        let names =
          Ast_builder.Default.pexp_array ~loc
            (Array.to_list (Array.map (Ast_builder.Default.estring ~loc) sites))
        in
        let pat = Ast_builder.Default.pvar ~loc counts_var in
        [%stri let [%p pat] = Census_runtime.register [%e names]] :: str

let () = Driver.register_transformation "census" ~impl
