module A = Query.Algebra
module C = Query.Cond

let ( let* ) = Result.bind

(* Columns a conjunct reads, counting the type column for type atoms. *)
let cond_columns c =
  let cols = C.columns c in
  if C.type_atoms c = [] then cols else Query.Env.type_column :: cols

let subset cols within = List.for_all (fun c -> List.mem c within) cols

(* Columns of a source on which Idb can build an equality index: primary
   keys, foreign keys and association end columns. *)
let indexable_columns (env : Query.Env.t) = function
  | A.Table t -> (
      match Relational.Schema.find_table env.store t with
      | None -> []
      | Some tbl ->
          tbl.Relational.Table.key
          @ List.concat_map
              (fun fk -> fk.Relational.Table.fk_columns)
              tbl.Relational.Table.fks)
  | A.Entity_set s -> (
      match Edm.Schema.set_root env.client s with
      | None -> []
      | Some root -> Edm.Schema.key_of env.client root)
  | A.Assoc_set a -> (
      match Edm.Schema.find_association env.client a with
      | None -> []
      | Some assoc -> Edm.Schema.association_columns env.client assoc)

(* Pick the first [col = v] conjunct over an indexable column as the access
   path; everything else stays a residual filter. *)
let pick_index env src filters =
  let indexable = indexable_columns env src in
  let rec go acc = function
    | [] -> (Plan.Full_scan, List.rev acc)
    | C.Cmp (col, C.Eq, v) :: rest when List.mem col indexable ->
        (Plan.Index_eq { col; value = v }, List.rev_append acc rest)
    | f :: rest -> go (f :: acc) rest
  in
  go [] filters

(* Can [c] be evaluated below a projection?  Every referenced column must
   come straight from a [Col] item (renamed back to its source); type atoms
   additionally need the type column passed through unrenamed. *)
let push_through_projection items c =
  let col_src dst =
    List.find_map
      (function
        | A.Col { src; dst = d } when String.equal d dst -> Some src
        | A.Col _ | A.Const _ | A.Coalesce _ -> None)
      items
  in
  let type_ok =
    C.type_atoms c = []
    || (match col_src Query.Env.type_column with
       | Some src -> String.equal src Query.Env.type_column
       | None -> false)
  in
  if not type_ok then None
  else
    let cols = C.columns c in
    let renames =
      List.filter_map (fun dst -> Option.map (fun src -> (dst, src)) (col_src dst)) cols
    in
    if List.length renames = List.length cols then Some (C.rename_columns renames c)
    else None

let wrap_residual filters node =
  match filters with [] -> node | fs -> Plan.Filter (C.conj fs, node)

(* Planning state for the queries planned over one set of views.  The
   tables are keyed on physical identity and hold only the views' nodes,
   before and after simplification: a query spliced over the views is
   simplified and typed afresh only above them, and each join of a view
   gets its spec (and padding lists) once. *)
type context = {
  env : Query.Env.t;
  simplify : A.t -> A.t;
  infer : A.t -> (string list, string) result;
  join_spec : A.t -> Query.Join.t;
}

let columns_of infer q =
  match infer q with Ok cols -> cols | Error e -> invalid_arg ("Exec.Planner: " ^ e)

let context env views =
  Obs.Span.with_ ~name:"exec.plan.context" (fun () ->
      let nodes = A.Memo.create () in
      let register =
        A.Memo.fix nodes (fun register -> function
          | A.Scan _ -> ()
          | A.Select (_, q) | A.Project (_, q) -> register q
          | A.Join (l, r, _) | A.Left_outer_join (l, r, _) | A.Full_outer_join (l, r, _)
          | A.Union_all (l, r) ->
              register l;
              register r)
      in
      let keep = A.Memo.mem nodes in
      List.iter register views;
      let simplify = Query.Simplify.query ~keep env in
      List.iter (fun v -> register (simplify v)) views;
      let infer =
        A.Memo.fix ~keep (A.Memo.create ()) (fun infer -> A.infer_step (fun _ -> infer) env)
      in
      let join_spec =
        A.Memo.fix ~keep (A.Memo.create ()) (fun _ q ->
            let kind, l, r, on =
              match q with
              | A.Join (l, r, on) -> (Query.Join.Inner, l, r, on)
              | A.Left_outer_join (l, r, on) -> (Query.Join.Left, l, r, on)
              | A.Full_outer_join (l, r, on) -> (Query.Join.Full, l, r, on)
              | A.Scan _ | A.Select _ | A.Project _ | A.Union_all _ ->
                  invalid_arg "Exec.Planner: not a join"
            in
            Query.Join.make kind ~on ~left:(columns_of infer l) ~right:(columns_of infer r))
      in
      { env; simplify; infer; join_spec })

let rec lower ctx filters q =
  match q with
  | A.Select (c, q) ->
      let keep c filters = match c with C.True -> filters | c -> c :: filters in
      lower ctx (List.fold_right keep (C.conjuncts c) filters) q
  | A.Scan src ->
      let access, residual = pick_index ctx.env src filters in
      Plan.Scan { source = src; access; filter = C.conj residual; proj = None }
  | A.Project (items, q) ->
      let pushed, residual =
        List.fold_left
          (fun (pushed, residual) f ->
            match push_through_projection items f with
            | Some f' -> (f' :: pushed, residual)
            | None -> (pushed, f :: residual))
          ([], []) filters
      in
      let inner = lower ctx (List.rev pushed) q in
      let node =
        match inner with
        | Plan.Scan ({ proj = None; _ } as s) -> Plan.Scan { s with proj = Some items }
        | inner -> Plan.Project (items, inner)
      in
      wrap_residual (List.rev residual) node
  | A.Join (l, r, _) | A.Left_outer_join (l, r, _) | A.Full_outer_join (l, r, _) ->
      lower_join ctx filters (ctx.join_spec q) l r
  | A.Union_all (l, r) -> Plan.Append (lower ctx filters l, lower ctx filters r)

(* A conjunct over join columns only goes into both inputs, whatever the
   join kind: an output row takes its join columns from the input row it
   came from, and a matched pair agrees on them, so the conjunct holds of
   the output row exactly when it holds of its input rows.  Other conjuncts
   sink only into an inner join's side that has their columns, or into a
   left join's preserved side, never into a NULL-padded side. *)
and lower_join ctx filters spec l r =
  let columns = columns_of ctx.infer in
  let to_left, to_right, residual =
    List.fold_left
      (fun (tl, tr, res) f ->
        let cols = cond_columns f in
        if subset cols spec.Query.Join.on then (f :: tl, f :: tr, res)
        else
          match spec.Query.Join.kind with
          | Query.Join.Inner ->
              if subset cols (columns l) then (f :: tl, tr, res)
              else if subset cols (columns r) then (tl, f :: tr, res)
              else (tl, tr, f :: res)
          | Query.Join.Left ->
              if subset cols (columns l) then (f :: tl, tr, res) else (tl, tr, f :: res)
          | Query.Join.Full -> (tl, tr, f :: res))
      ([], [], []) filters
  in
  let join =
    { Plan.spec; left = lower ctx (List.rev to_left) l; right = lower ctx (List.rev to_right) r }
  in
  wrap_residual (List.rev residual) (Plan.Hash_join join)

let lower_query ctx q =
  let* _cols = ctx.infer q in
  Ok (lower ctx [] (ctx.simplify q))

let plan_in ctx q = Obs.Span.with_ ~name:"exec.plan" (fun () -> lower_query ctx q)
let plan env q = Obs.Span.with_ ~name:"exec.plan" (fun () -> lower_query (context env [ q ]) q)
