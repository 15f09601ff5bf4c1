module A = Query.Algebra
module C = Query.Cond

let ( let* ) = Result.bind

(* Columns a conjunct reads, counting the type column for type atoms. *)
let cond_columns c =
  let cols = C.columns c in
  if C.type_atoms c = [] then cols else Query.Env.type_column :: cols

let subset cols within = List.for_all (fun c -> List.mem c within) cols
let within layout cols = List.for_all (fun c -> Array.mem c layout) cols

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

(* -- compiling to slots ------------------------------------------------------ *)

let index names c = Option.value ~default:Plan.absent (Array.find_index (String.equal c) names)

(* [IS OF] atoms are resolved against the schema: the types that satisfy
   them are listed. *)
let rec pred schema slot = function
  | C.True -> Plan.Always
  | C.False -> Plan.Never
  | C.Is_of e ->
      let types = if Edm.Schema.mem_type schema e then Edm.Schema.subtypes schema e else [] in
      Plan.Type_in (slot Query.Env.type_column, types)
  | C.Is_of_only e -> Plan.Type_in (slot Query.Env.type_column, [ e ])
  | C.Is_null a -> Plan.Null (slot a)
  | C.Is_not_null a -> Plan.Not_null (slot a)
  | C.Cmp (a, op, v) -> Plan.Cmp (slot a, op, v)
  | C.And (a, b) -> Plan.Both (pred schema slot a, pred schema slot b)
  | C.Or (a, b) -> Plan.Either (pred schema slot a, pred schema slot b)

let items slot items =
  let item = function
    | A.Col { src; _ } -> Plan.Slot (slot src)
    | A.Const { value; _ } -> Plan.Const value
    | A.Coalesce { srcs; _ } -> Plan.Coalesce (Array.of_list (List.map (fun c -> Plan.Slot (slot c)) srcs))
  in
  Array.of_list (List.map item items)

(* [upper] over the output of [lower]: each slot [upper] reads is replaced by
   the item of [lower] that computes it. *)
let compose upper lower =
  let rec item = function
    | Plan.Slot i -> lower.(i)
    | Plan.Const _ as c -> c
    | Plan.Coalesce items -> Plan.Coalesce (Array.map item items)
  in
  Array.map item upper

(* A source's scan layout, its slots by name, and its indexable columns. *)
type source = { layout : string array; slots : (string, int) Hashtbl.t; indexable : string list }

let source_slot s c = match Hashtbl.find s.slots c with i -> i | exception Not_found -> Plan.absent

(* Pick the first [col = v] conjunct over an indexable column as the access
   path; everything else stays a residual filter, except [col IS NOT NULL]:
   the probe returns no row whose [col] is NULL. *)
let pick_index s filters =
  let rec go acc = function
    | [] -> (Plan.Full_scan, List.rev acc)
    | C.Cmp (col, C.Eq, v) :: rest when List.mem col s.indexable ->
        let not_null = function C.Is_not_null c -> String.equal c col | _ -> false in
        ( Plan.Index_eq { col; slot = source_slot s col; value = v },
          List.filter (fun f -> not (not_null f)) (List.rev_append acc rest) )
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

(* A residual filter over [node], resolved against its layout. *)
let wrap_residual schema layout filters node =
  match filters with
  | [] -> node
  | fs ->
      let cond = C.conj fs in
      Plan.Filter { cond; pred = pred schema (index layout) cond; input = node }

(* A node's compiled form: its layout (the order of [A.infer]'s columns)
   and its operator's slots over its inputs' layouts. *)
type compiled = { layout : string array; op : op }

and op =
  | Selected  (** a scan or a selection *)
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
  | A.Join (l, r, on) -> joined Query.Join.Inner l r on
  | A.Left_outer_join (l, r, on) -> joined Query.Join.Left l r on
  | A.Full_outer_join (l, r, on) -> joined Query.Join.Full l r on
  | A.Union_all (l, r) ->
      let l = layout l and r = layout r in
      { layout = l; op = Unioned (if l = r then None else Some (Array.map (index r) l)) }

(* The root's row template, and the slot of each of its columns. *)
let template_step compile template = function
  | A.Select (_, q) -> template q
  | q ->
      let layout = (compile q).layout in
      let row = Datum.Row.of_list (Array.to_list (Array.map (fun c -> (c, Datum.Value.Null)) layout)) in
      (row, Array.of_list (List.map (index layout) (Datum.Row.columns row)))

(* Planning state for the queries planned over one set of views.  The
   tables are keyed on physical identity and hold only the views' nodes,
   before and after simplification: a query spliced over the views is
   simplified, typed and compiled afresh only above them, so it pays for
   its own nodes and the filters pushed into its scans.  [sources] holds
   one entry per source scanned. *)
type context = {
  env : Query.Env.t;
  simplify : A.t -> A.t;
  check : A.t -> (unit, string) result;
  source : A.source -> source;
  compile : A.t -> compiled;
  template : A.t -> Datum.Row.t * int array;
}

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
      let memo step = A.Memo.fix ~keep (A.Memo.create ()) step in
      let sources = Hashtbl.create 16 in
      let source src =
        match Hashtbl.find sources src with
        | s -> s
        | exception Not_found ->
            let layout = Idb.scan_layout env src in
            let slots = Hashtbl.create (Array.length layout) in
            Array.iteri (fun i c -> Hashtbl.replace slots c i) layout;
            let indexable = List.filter (Hashtbl.mem slots) (indexable_columns env src) in
            let s = { layout; slots; indexable } in
            Hashtbl.add sources src s;
            s
      in
      let compile = memo (compile_step source) in
      (* [A.infer]'s typing, each node's columns read off its layout. *)
      let check =
        memo (fun check q ->
            let columns _ q =
              let* () = check q in
              Ok (Array.to_list (compile q).layout)
            in
            Result.map ignore (A.infer_step columns env q))
      in
      { env; simplify; check; source; compile; template = memo (template_step compile) })

let rec lower ctx filters q =
  let schema = ctx.env.client in
  match q with
  | A.Select (c, q) ->
      let keep c filters = match c with C.True -> filters | c -> c :: filters in
      lower ctx (List.fold_right keep (C.conjuncts c) filters) q
  | A.Scan src ->
      let s = ctx.source src in
      let access, residual = pick_index s filters in
      let filter = C.conj residual in
      Plan.Scan
        { source = src; access; filter; pred = pred schema (source_slot s) filter; proj = None;
          map = None; layout = s.layout }
  | A.Project (items, below) ->
      let pushed, residual =
        List.fold_left
          (fun (pushed, residual) f ->
            match push_through_projection items f with
            | Some f' -> (f' :: pushed, residual)
            | None -> (pushed, f :: residual))
          ([], []) filters
      in
      let inner = lower ctx (List.rev pushed) below in
      let layout, slots =
        match ctx.compile q with
        | { layout; op = Projected slots } -> (layout, slots)
        | _ -> invalid_arg "Exec.Planner: not a projection"
      in
      let node =
        match inner with
        | Plan.Scan ({ proj = None; _ } as s) ->
            Plan.Scan { s with proj = Some items; map = Some slots; layout }
        | Plan.Project { fused = m; _ } | Plan.Scan { map = Some m; _ } ->
            Plan.Project { items; slots; fused = compose slots m; layout; input = inner }
        | inner -> Plan.Project { items; slots; fused = slots; layout; input = inner }
      in
      wrap_residual schema layout (List.rev residual) node
  | A.Join (l, r, _) | A.Left_outer_join (l, r, _) | A.Full_outer_join (l, r, _) ->
      lower_join ctx filters (ctx.compile q) l r
  | A.Union_all (l, r) -> (
      match ctx.compile q with
      | { op = Unioned perm; _ } ->
          Plan.Append { left = lower ctx filters l; right = lower ctx filters r; perm }
      | _ -> invalid_arg "Exec.Planner: not a union")

(* A conjunct over join columns only goes into both inputs, whatever the
   join kind: an output row takes its join columns from the input row it
   came from, and a matched pair agrees on them, so the conjunct holds of
   the output row exactly when it holds of its input rows.  Other conjuncts
   sink only into an inner join's side that has their columns, or into a
   left join's preserved side, never into a NULL-padded side. *)
and lower_join ctx filters compiled l r =
  let spec, lkey, rkey, keep =
    match compiled.op with
    | Joined { spec; lkey; rkey; keep } -> (spec, lkey, rkey, keep)
    | _ -> invalid_arg "Exec.Planner: not a join"
  in
  let columns q = (ctx.compile q).layout in
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
          | Query.Join.Left ->
              if within (columns l) cols then (f :: tl, tr, res) else (tl, tr, f :: res)
          | Query.Join.Full -> (tl, tr, f :: res))
      ([], [], []) filters
  in
  let join =
    { Plan.spec; left = lower ctx (List.rev to_left) l; right = lower ctx (List.rev to_right) r;
      lkey; rkey; keep; layout = compiled.layout }
  in
  wrap_residual ctx.env.client compiled.layout (List.rev residual) (Plan.Hash_join join)

let lower_query ctx q =
  let* () = ctx.check q in
  let q = ctx.simplify q in
  let template, order = ctx.template q in
  Ok { Plan.root = lower ctx [] q; template; order }

(* Closes over the source table alone, so a caller keeping the result does
   not keep the context's node tables. *)
let scan_layout ctx =
  let source = ctx.source in
  fun src -> (source src).layout

let plan_in ctx q = Obs.Span.with_ ~name:"exec.plan" (fun () -> lower_query ctx q)
let plan env q = Obs.Span.with_ ~name:"exec.plan" (fun () -> lower_query (context env [ q ]) q)
