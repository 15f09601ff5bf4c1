let pp_item fmt = function
  | Algebra.Col { src; dst } when src = dst -> Format.pp_print_string fmt src
  | Algebra.Col { src; dst } -> Format.fprintf fmt "%s AS %s" src dst
  | Algebra.Const { value; dst } -> Format.fprintf fmt "%s AS %s" (Datum.Value.to_literal value) dst
  | Algebra.Coalesce { srcs; dst } ->
      Format.fprintf fmt "COALESCE(%s) AS %s" (String.concat ", " srcs) dst

let pp_source fmt = function
  | Algebra.Entity_set s -> Format.pp_print_string fmt s
  | Algebra.Assoc_set a -> Format.pp_print_string fmt a
  | Algebra.Table t -> Format.pp_print_string fmt t

let pp_items fmt items =
  Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ") pp_item fmt items

(* Render with fresh aliases for derived tables.  [SELECT ... FROM ... WHERE]
   blocks are fused where the tree shape allows. *)
let counter = ref 0

let fresh () =
  incr counter;
  Printf.sprintf "T%d" !counter

let reset () = counter := 0

let rec pp_query fmt q =
  match q with
  | Algebra.Scan src -> Format.fprintf fmt "SELECT * FROM %a" pp_source src
  | Algebra.Select (c, Algebra.Scan src) ->
      Format.fprintf fmt "@[<v>SELECT * FROM %a@,WHERE %a@]" pp_source src Cond.pp c
  | Algebra.Select (c, q1) ->
      Format.fprintf fmt "@[<v>SELECT * FROM (@;<0 2>@[<v>%a@]@,) AS %s@,WHERE %a@]" pp_query q1
        (fresh ()) Cond.pp c
  | Algebra.Project (items, Algebra.Scan src) ->
      Format.fprintf fmt "@[<v>SELECT @[%a@]@,FROM %a@]" pp_items items pp_source src
  | Algebra.Project (items, Algebra.Select (c, Algebra.Scan src)) ->
      Format.fprintf fmt "@[<v>SELECT @[%a@]@,FROM %a@,WHERE %a@]" pp_items items pp_source src
        Cond.pp c
  | Algebra.Project (items, Algebra.Select (c, q1)) ->
      Format.fprintf fmt "@[<v>SELECT @[%a@]@,FROM (@;<0 2>@[<v>%a@]@,) AS %s@,WHERE %a@]" pp_items
        items pp_query q1 (fresh ()) Cond.pp c
  | Algebra.Project (items, q1) ->
      Format.fprintf fmt "@[<v>SELECT @[%a@]@,FROM (@;<0 2>@[<v>%a@]@,) AS %s@]" pp_items items
        pp_query q1 (fresh ())
  | Algebra.Join (kind, l, r, on) ->
      let kw =
        match kind with
        | Join.Inner -> "INNER JOIN"
        | Join.Left -> "LEFT OUTER JOIN"
        | Join.Full -> "FULL OUTER JOIN"
      in
      pp_join fmt kw l r on
  | Algebra.Union_all (l, r) ->
      Format.fprintf fmt "@[<v>(@;<0 2>@[<v>%a@]@,)@,UNION ALL@,(@;<0 2>@[<v>%a@]@,)@]" pp_query l
        pp_query r

and pp_join fmt kw l r on =
  let tl = fresh () and tr = fresh () in
  let pp_on fmt () =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.fprintf fmt " AND ")
      (fun fmt c -> Format.fprintf fmt "%s.%s = %s.%s" tl c tr c)
      fmt on
  in
  Format.fprintf fmt
    "@[<v>SELECT * FROM@,(@;<0 2>@[<v>%a@]@,) AS %s@,%s@,(@;<0 2>@[<v>%a@]@,) AS %s@,ON %a@]"
    pp_query l tl kw pp_query r tr pp_on ()

let rec ctor_cases acc = function
  | Ctor.If (c, a, b) -> ctor_cases ((c, a) :: acc) b
  | Ctor.Entity _ as leaf -> (List.rev acc, leaf)

let pp_leaf fmt = function
  | Ctor.Entity { etype; attrs } -> Format.fprintf fmt "%s(%s)" etype (String.concat ", " attrs)
  | Ctor.If _ -> assert false

let rec pp_case_leaf fmt = function
  | Ctor.Entity _ as leaf -> pp_leaf fmt leaf
  | Ctor.If _ as nested -> pp_ctor fmt nested

and pp_ctor fmt ctor =
  match ctor with
  | Ctor.Entity _ -> pp_leaf fmt ctor
  | Ctor.If _ ->
      let cases, final = ctor_cases [] ctor in
      Format.fprintf fmt "@[<v>CASE@,%a@,  ELSE %a@,END@]"
        (Format.pp_print_list (fun fmt (c, leaf) ->
             Format.fprintf fmt "  WHEN %a@,  THEN %a" Cond.pp c pp_case_leaf leaf))
        cases pp_leaf final

let query fmt q =
  reset ();
  Format.fprintf fmt "@[<v>%a@]" pp_query q

let view fmt (v : View.t) =
  reset ();
  Format.fprintf fmt "@[<v>SELECT VALUE@;<0 2>@[<v>%a@]@,FROM (@;<0 2>@[<v>%a@]@,) AS %s@]" pp_ctor
    v.View.ctor pp_query v.View.query (fresh ())

(* Compact single-line conditions, for lint diagnostics and fragment
   descriptions. *)
let cond = Cond.pp
let cond_string c = Format.asprintf "@[<h>%a@]" cond c

let pp_named pp_v fmt (name, v) = Format.fprintf fmt "@[<v>-- %s@,%a@]" name pp_v v

let query_views fmt (qv : View.query_views) =
  let with_pp pp (name, v) = (name, fun fmt -> pp fmt v) in
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (pp_named (fun fmt pp -> pp fmt)))
    (List.map (with_pp view) (View.entity_view_bindings qv)
    @ List.map (with_pp query) (View.assoc_view_bindings qv))

let update_views fmt (uv : View.update_views) =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (pp_named query))
    (View.update_view_bindings uv)
