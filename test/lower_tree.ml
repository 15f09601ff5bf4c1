(* [Exec.Planner] as an algebra-level lowering: each node's layout and
   slots are compiled into a record of their own ([compile_step]), and every
   plan is lowered afresh from the algebra ([lower], [lower_join]), the
   query's conjuncts carried down as a list.  Tests hold the planner, which
   memoizes each view node's plan and pushes a query's filters down it,
   against this walk: the same root and template for every query. *)

module A = Query.Algebra
module C = Query.Cond
module Plan = Exec.Plan

let ( let* ) = Result.bind

let cond_columns c =
  let cols = C.columns c in
  if C.type_atoms c = [] then cols else Query.Env.type_column :: cols

let subset cols within = List.for_all (fun c -> List.mem c within) cols
let within layout cols = List.for_all (fun c -> Array.mem c layout) cols

let indexable_columns (env : Query.Env.t) = function
  | A.Table t -> (
      match Relational.Schema.find_table env.store t with
      | None -> []
      | Some tbl ->
          tbl.Relational.Table.key
          @ List.concat_map (fun fk -> fk.Relational.Table.fk_columns) tbl.Relational.Table.fks)
  | A.Entity_set s -> (
      match Edm.Schema.set_root env.client s with
      | None -> []
      | Some root -> Edm.Schema.key_of env.client root)
  | A.Assoc_set a -> (
      match Edm.Schema.find_association env.client a with
      | None -> []
      | Some assoc -> Edm.Schema.association_columns env.client assoc)

let index names c = Option.value ~default:Plan.absent (Array.find_index (String.equal c) names)

let rec pred schema slot = function
  | C.True -> Plan.Always
  | C.False -> Plan.Never
  | C.Is_of e ->
      let types = if Edm.Schema.mem_type schema e then Edm.Schema.subtypes schema e else [] in
      Plan.Type_in (slot Query.Env.type_column, types)
  | C.Is_of_only e -> Plan.Type_in (slot Query.Env.type_column, [ e ])
  | C.Is_null a -> Plan.Null (slot a)
  | C.Is_not_null a -> Plan.Not_null (slot a)
  | C.Cmp (a, op, v) -> Plan.Cmp (slot a, op, Plan.Lit v)
  | C.And (a, b) -> Plan.Both (pred schema slot a, pred schema slot b)
  | C.Or (a, b) -> Plan.Either (pred schema slot a, pred schema slot b)

let items slot items =
  let item = function
    | A.Col { src; _ } -> Plan.Slot (slot src)
    | A.Const { value; _ } -> Plan.Const value
    | A.Coalesce { srcs; _ } -> Plan.Coalesce (Array.of_list (List.map (fun c -> Plan.Slot (slot c)) srcs))
  in
  Array.of_list (List.map item items)

let compose upper lower =
  let rec item = function
    | Plan.Slot i -> lower.(i)
    | Plan.Const _ as c -> c
    | Plan.Coalesce items -> Plan.Coalesce (Array.map item items)
  in
  Array.map item upper

type source = { layout : string array; slots : (string, int) Hashtbl.t; indexable : string list }

let source_slot s c = match Hashtbl.find s.slots c with i -> i | exception Not_found -> Plan.absent

let pick_index s filters =
  let rec go acc = function
    | [] -> (Plan.Full_scan, List.rev acc)
    | C.Cmp (col, C.Eq, v) :: rest when List.mem col s.indexable ->
        let not_null = function C.Is_not_null c -> String.equal c col | _ -> false in
        ( Plan.Index_eq { col; slot = source_slot s col; value = Plan.Lit v },
          List.filter (fun f -> not (not_null f)) (List.rev_append acc rest) )
    | f :: rest -> go (f :: acc) rest
  in
  go [] filters

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
    let renames = List.filter_map (fun dst -> Option.map (fun src -> (dst, src)) (col_src dst)) cols in
    if List.length renames = List.length cols then Some (C.rename_columns renames c) else None

let wrap_residual schema layout filters node =
  match filters with
  | [] -> node
  | fs ->
      let cond = C.conj fs in
      Plan.Filter { cond; pred = pred schema (index layout) cond; input = node }

(* A node's compiled form: its layout and its operator's slots over its
   inputs' layouts. *)
type compiled = { layout : string array; op : op }

and op =
  | Selected
  | Projected of Plan.item array
  | Joined of { spec : Query.Join.t; lkey : int array; rkey : int array; keep : int array }
  | Unioned of int array option

let compile_step (source : A.source -> source) compile q =
  let layout q = (compile q).layout in
  let joined kind l r on =
    let l = layout l and r = layout r in
    let rkey = Array.of_list (List.map (index r) on) in
    let keep =
      Array.of_seq (Seq.filter (fun j -> not (Array.mem j rkey)) (Seq.init (Array.length r) Fun.id))
    in
    let lkey = Array.of_list (List.map (index l) on) in
    {
      layout = Array.append l (Array.map (Array.get r) keep);
      op = Joined { spec = Query.Join.make kind ~on; lkey; rkey; keep };
    }
  in
  match q with
  | A.Scan src -> { layout = (source src).layout; op = Selected }
  | A.Select (_, q) -> { layout = layout q; op = Selected }
  | A.Project (its, q) ->
      { layout = Array.of_list (List.map A.dst_of its); op = Projected (items (index (layout q)) its) }
  | A.Join (Query.Join.Inner, l, r, on) -> joined Query.Join.Inner l r on
  | A.Join (Query.Join.Left, l, r, on) -> joined Query.Join.Left l r on
  | A.Join (Query.Join.Full, l, r, on) -> joined Query.Join.Full l r on
  | A.Union_all (l, r) ->
      let l = layout l and r = layout r in
      { layout = l; op = Unioned (if l = r then None else Some (Array.map (index r) l)) }

let template_step compile template = function
  | A.Select (_, q) -> template q
  | q ->
      let layout = (compile q).layout in
      let row = Datum.Row.of_list (Array.to_list (Array.map (fun c -> (c, Datum.Value.Null)) layout)) in
      (row, Array.of_list (List.map (index layout) (Datum.Row.columns row)))

let rec lower env source compile filters q =
  let schema = env.Query.Env.client in
  let lower = lower env source compile in
  match q with
  | A.Select (c, q) ->
      let keep c filters = match c with C.True -> filters | c -> c :: filters in
      lower (List.fold_right keep (C.conjuncts c) filters) q
  | A.Scan src ->
      let s = source src in
      let access, residual = pick_index s filters in
      let filter = C.conj residual in
      Plan.Scan
        { source = src; access; filter; pred = pred schema (source_slot s) filter; proj = None;
          map = None; layout = s.layout }
  | A.Project (its, below) ->
      let pushed, residual =
        List.fold_left
          (fun (pushed, residual) f ->
            match push_through_projection its f with
            | Some f' -> (f' :: pushed, residual)
            | None -> (pushed, f :: residual))
          ([], []) filters
      in
      let inner = lower (List.rev pushed) below in
      let layout, slots =
        match compile q with
        | { layout; op = Projected slots } -> (layout, slots)
        | _ -> invalid_arg "Lower_tree: not a projection"
      in
      let node =
        match inner with
        | Plan.Scan ({ proj = None; _ } as s) -> Plan.Scan { s with proj = Some its; map = Some slots; layout }
        | Plan.Project { fused = m; _ } | Plan.Scan { map = Some m; _ } ->
            Plan.Project { items = its; slots; fused = compose slots m; layout; input = inner }
        | inner -> Plan.Project { items = its; slots; fused = slots; layout; input = inner }
      in
      wrap_residual schema layout (List.rev residual) node
  | A.Join (_, l, r, _) ->
      lower_join env source compile filters (compile q) l r
  | A.Union_all (l, r) -> (
      match compile q with
      | { op = Unioned perm; _ } -> Plan.Append { left = lower filters l; right = lower filters r; perm }
      | _ -> invalid_arg "Lower_tree: not a union")

and lower_join env source compile filters compiled l r =
  let spec, lkey, rkey, keep =
    match compiled.op with
    | Joined { spec; lkey; rkey; keep } -> (spec, lkey, rkey, keep)
    | _ -> invalid_arg "Lower_tree: not a join"
  in
  let columns q = (compile q).layout in
  let to_left, to_right, residual =
    List.fold_left
      (fun (tl, tr, res) f ->
        let cols = cond_columns f in
        if subset cols spec.Query.Join.on then (f :: tl, f :: tr, res)
        else
          match spec.Query.Join.kind with
          | Query.Join.Inner ->
              if within (columns l) cols then (f :: tl, tr, res)
              else if within (columns r) cols then (tl, f :: tr, res)
              else (tl, tr, f :: res)
          | Query.Join.Left -> if within (columns l) cols then (f :: tl, tr, res) else (tl, tr, f :: res)
          | Query.Join.Full -> (tl, tr, f :: res))
      ([], [], []) filters
  in
  let lower = lower env source compile in
  let join =
    { Plan.spec; left = lower (List.rev to_left) l; right = lower (List.rev to_right) r; lkey; rkey;
      keep; layout = compiled.layout }
  in
  wrap_residual env.Query.Env.client compiled.layout (List.rev residual) (Plan.Hash_join join)

(* [q] validated, simplified and lowered; each node compiled once per call. *)
let plan env q =
  let* _ = A.infer env q in
  let q = Query.Simplify.query env q in
  let source src =
    let layout = Exec.Idb.scan_layout env src in
    let slots = Hashtbl.create (Array.length layout) in
    Array.iteri (fun i c -> Hashtbl.replace slots c i) layout;
    { layout; slots; indexable = List.filter (Hashtbl.mem slots) (indexable_columns env src) }
  in
  let compile = A.Memo.fix (A.Memo.create ()) (compile_step source) in
  let template = A.Memo.fix (A.Memo.create ()) (template_step compile) in
  let template, order = template q in
  Ok { Plan.root = lower env source compile [] q; template; order; args = [||] }

(* [p] with each [Param i] the literal [p.args.(i)]: a plan the planner
   prepared for a read, as the lowering of that read gives it. *)
let resolve (p : Plan.t) =
  let value = function Plan.Lit v -> v | Plan.Param i -> p.args.(i) in
  let rec pred = function
    | Plan.Cmp (i, op, v) -> Plan.Cmp (i, op, Plan.Lit (value v))
    | Plan.Both (x, y) -> Plan.Both (pred x, pred y)
    | Plan.Either (x, y) -> Plan.Either (pred x, pred y)
    | (Plan.Always | Plan.Never | Plan.Type_in _ | Plan.Null _ | Plan.Not_null _) as p -> p
  in
  let rec node = function
    | Plan.Scan s ->
        let access =
          match s.access with
          | Plan.Full_scan -> Plan.Full_scan
          | Plan.Index_eq ix -> Plan.Index_eq { ix with value = Plan.Lit (value ix.value) }
        in
        Plan.Scan { s with access; pred = pred s.pred }
    | Plan.Filter f -> Plan.Filter { f with pred = pred f.pred; input = node f.input }
    | Plan.Project p -> Plan.Project { p with input = node p.input }
    | Plan.Hash_join j -> Plan.Hash_join { j with left = node j.left; right = node j.right }
    | Plan.Append a -> Plan.Append { a with left = node a.left; right = node a.right }
  in
  { p with root = node p.root; args = [||] }
