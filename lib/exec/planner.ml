module A = Query.Algebra
module C = Query.Cond

let ( let* ) = Result.bind

(* Columns a conjunct reads, counting the type column for type atoms. *)
let cond_columns c =
  let cols = C.columns c in
  if C.type_atoms c = [] then cols else Query.Env.type_column :: cols

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
   them are listed.  [operand] gives each comparison's value its plan
   operand. *)
let rec pred schema operand slot = function
  | C.True -> Plan.Always
  | C.False -> Plan.Never
  | C.Is_of e ->
      let types = if Edm.Schema.mem_type schema e then Edm.Schema.subtypes schema e else [] in
      Plan.Type_in (slot Query.Env.type_column, types)
  | C.Is_of_only e -> Plan.Type_in (slot Query.Env.type_column, [ e ])
  | C.Is_null a -> Plan.Null (slot a)
  | C.Is_not_null a -> Plan.Not_null (slot a)
  | C.Cmp (a, op, v) -> Plan.Cmp (slot a, op, operand v)
  | C.And (a, b) -> Plan.Both (pred schema operand slot a, pred schema operand slot b)
  | C.Or (a, b) -> Plan.Either (pred schema operand slot a, pred schema operand slot b)

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

(* The conjuncts of [fs] that can be evaluated below a projection, renamed
   back to its input's columns, and the rest.  Every column such a conjunct
   reads must come straight from a [Col] item; type atoms additionally need
   the type column passed through unrenamed. *)
let through items fs =
  let col_src dst =
    List.find_map (function A.Col { src; dst = d } when String.equal d dst -> Some src | _ -> None) items
  in
  let type_ok = lazy (col_src Query.Env.type_column = Some Query.Env.type_column) in
  List.partition_map
    (fun c ->
      let cols = C.columns c in
      let renames = List.filter_map (fun dst -> Option.map (fun src -> (dst, src)) (col_src dst)) cols in
      if (C.type_atoms c = [] || Lazy.force type_ok) && List.length renames = List.length cols then
        Either.Left (C.rename_columns renames c)
      else Either.Right c)
    fs

(* -- plans -------------------------------------------------------------------- *)

(* The plan nodes planning builds, as against finds in the context. *)
let c_nodes = Obs.Metric.counter "exec.plan.nodes"

let built node =
  Obs.Metric.incr c_nodes;
  node

(* A node's layout: a filter's is its input's, a union's its left input's. *)
let rec layout = function
  | Plan.Scan { layout; _ } | Plan.Project { layout; _ } | Plan.Hash_join { layout; _ } -> layout
  | Plan.Filter { input; _ } | Plan.Append { left = input; _ } -> layout input

(* A condition's conjuncts; [TRUE] has none. *)
let conjuncts c = List.filter (function C.True -> false | _ -> true) (C.conjuncts c)

(* What pushdown reads: the environment, for [IS OF] and the store's keys;
   each scanned source's layout, slots and indexable columns; and the
   operand each comparison value becomes. *)
type scope = {
  env : Query.Env.t;
  source : A.source -> source;
  operand : Datum.Value.t -> Plan.operand;
}

(* A residual filter over [node], resolved against its layout. *)
let filter sc fs node =
  if fs = [] then node
  else
    let cond = C.conj fs in
    let pred = pred sc.env.client sc.operand (index (layout node)) cond in
    built (Plan.Filter { cond; pred; input = node })

(* A projection over [input]: fused into a scan that projects nothing yet,
   and given one slot map over the rows below a stack of projections. *)
let project items slots layout input =
  built
    (match input with
    | Plan.Scan ({ proj = None; _ } as s) -> Plan.Scan { s with proj = Some items; map = Some slots; layout }
    | Plan.Project { fused = m; _ } | Plan.Scan { map = Some m; _ } ->
        Plan.Project { items; slots; fused = compose slots m; layout; input }
    | input -> Plan.Project { items; slots; fused = slots; layout; input })

let join kind left right on =
  let l = layout left and r = layout right in
  let rkey = Array.of_list (List.map (index r) on) in
  let keep =
    Array.of_seq (Seq.filter (fun j -> not (Array.mem j rkey)) (Seq.init (Array.length r) Fun.id))
  in
  built
    (Plan.Hash_join
       { spec = Query.Join.make kind ~on; left; right; lkey = Array.of_list (List.map (index l) on);
         rkey; keep; layout = Array.append l (Array.map (Array.get r) keep) })

(* A scan's access path and residual filter once [fs] follow its own
   conjuncts.  A probe the scan has stays its access path; otherwise the
   first [col = v] conjunct over an indexable column becomes it.  The rest
   stay a residual filter, except [col IS NOT NULL]: the probe returns no
   row whose [col] is NULL. *)
let scan_filter sc src access filter fs =
  let s = sc.source src in
  let not_null col = function C.Is_not_null c -> String.equal c col | _ -> false in
  let probed col fs = List.filter (fun f -> not (not_null col f)) fs in
  let rec pick acc = function
    | [] -> (Plan.Full_scan, List.rev acc)
    | C.Cmp (col, C.Eq, v) :: rest when List.mem col s.indexable ->
        ( Plan.Index_eq { col; slot = source_slot s col; value = sc.operand v },
          probed col (List.rev_append acc rest) )
    | f :: rest -> pick (f :: acc) rest
  in
  let access, residual =
    match access with
    | Plan.Full_scan -> pick [] (conjuncts filter @ fs)
    | Plan.Index_eq { col; _ } -> (access, probed col (conjuncts filter @ fs))
  in
  let filter = C.conj residual in
  (access, filter, pred sc.env.client sc.operand (source_slot s) filter)

(* [push sc fs node] is [node] with the conjuncts [fs] applied after its
   own: each sinks as far as it can, so a scan it reaches may turn it into
   an index probe, and the rest join the residual filter of the node where
   they stop (one [Filter], its own conjuncts first).  Only the nodes a
   conjunct reaches are rebuilt; every other node stays [==].

   A conjunct over join columns only goes into both inputs, whatever the
   join kind: an output row takes its join columns from the input row it
   came from, and a matched pair agrees on them, so the conjunct holds of
   the output row exactly when it holds of its input rows.  Other conjuncts
   sink only into an inner join's side that has their columns, or into a
   left join's preserved side, never into a NULL-padded side. *)
let rec push sc fs node =
  if fs = [] then node
  else
    let node, residual = sink sc fs node in
    filter sc residual node

(* [node] with what of [fs] sinks into it, and the conjuncts left above it. *)
and sink sc fs node =
  match node with
  | Plan.Filter { cond; input; _ } ->
      let input, residual = sink sc fs input in
      (input, conjuncts cond @ residual)
  | Plan.Scan s ->
      let below, residual = match s.proj with None -> (fs, []) | Some items -> through items fs in
      if below = [] then (node, residual)
      else
        let access, filter, pred = scan_filter sc s.source s.access s.filter below in
        (built (Plan.Scan { s with access; filter; pred }), residual)
  | Plan.Project p ->
      let below, residual = through p.items fs in
      let input = push sc below p.input in
      if input == p.input then (node, residual) else (project p.items p.slots p.layout input, residual)
  | Plan.Hash_join j ->
      let l = layout j.left and r = layout j.right in
      let to_left, to_right, residual =
        List.fold_right
          (fun f (tl, tr, res) ->
            let cols = cond_columns f in
            if List.for_all (fun c -> List.mem c j.spec.on) cols then (f :: tl, f :: tr, res)
            else
              match j.spec.kind with
              | Query.Join.Inner when within l cols -> (f :: tl, tr, res)
              | Query.Join.Inner when within r cols -> (tl, f :: tr, res)
              | Query.Join.Left when within l cols -> (f :: tl, tr, res)
              | Query.Join.Inner | Query.Join.Left | Query.Join.Full -> (tl, tr, f :: res))
          fs ([], [], [])
      in
      let left = push sc to_left j.left and right = push sc to_right j.right in
      if left == j.left && right == j.right then (node, residual)
      else (built (Plan.Hash_join { j with left; right }), residual)
  | Plan.Append { left; right; perm } ->
      (built (Plan.Append { left = push sc fs left; right = push sc fs right; perm }), [])

(* A node's unfiltered plan: a selection is its conjuncts pushed into its
   input's plan. *)
let compile_step sc compile = function
  | A.Scan src ->
      built
        (Plan.Scan
           { source = src; access = Plan.Full_scan; filter = C.True; pred = Plan.Always; proj = None;
             map = None; layout = (sc.source src).layout })
  | A.Select (c, q) -> push sc (conjuncts c) (compile q)
  | A.Project (its, q) ->
      let input = compile q in
      project its (items (index (layout input)) its) (Array.of_list (List.map A.dst_of its)) input
  | A.Join (kind, l, r, on) -> join kind (compile l) (compile r) on
  | A.Union_all (l, r) ->
      let left = compile l and right = compile r in
      let l = layout left and r = layout right in
      built (Plan.Append { left; right; perm = (if l = r then None else Some (Array.map (index r) l)) })

(* The root's row template, and the slot of each of its columns. *)
let template_step compile template = function
  | A.Select (_, q) -> template q
  | q ->
      let layout = layout (compile q) in
      let row = Datum.Row.of_list (Array.to_list (Array.map (fun c -> (c, Datum.Value.Null)) layout)) in
      (row, Array.of_list (List.map (index layout) (Datum.Row.columns row)))

(* -- prepared reads ------------------------------------------------------------ *)

(* A read's shape is its client query with each non-NULL comparison literal
   lifted out and replaced by a placeholder of the literal's domain: reads
   that differ only in such literals share a shape.  [lift f q] is [q] with
   [f] applied to each of them, always in the same order, and [q] itself
   when it has none. *)
let placeholder = function
  | Datum.Value.Int _ -> Datum.Value.Int 0
  | Datum.Value.String _ -> Datum.Value.String ""
  | Datum.Value.Bool _ -> Datum.Value.Bool false
  | Datum.Value.Decimal _ -> Datum.Value.Decimal 0.
  | Datum.Value.Null -> Datum.Value.Null

let lift f =
  A.map_conditions
    (C.map_atoms (function
      | C.Cmp (a, op, v) when not (Datum.Value.is_null v) -> C.Cmp (a, op, f v)
      | atom -> atom))

(* [Hashtbl.hash] reads 10 meaningful values, which a condition of a few
   atoms can use up before the name of the set it selects from. *)
module Shape_tbl = Hashtbl.Make (struct
  type t = A.t

  let equal = A.equal
  let hash = Hashtbl.hash_param 40 200
end)

(* Planning state for the queries planned over one set of views.  The
   tables are keyed on physical identity and hold only the views' nodes,
   before and after simplification: a query spliced over the views is
   simplified, typed and compiled afresh only above them, and its filters
   are pushed down the views' plans, rebuilding only the nodes they reach.
   [scope] holds one entry per source scanned. *)
type context = {
  scope : scope;
  view : A.t -> bool;
  simplify : A.t -> A.t;
  check : A.t -> (unit, string) result;
  compile : A.t -> Plan.node;
  template : A.t -> Datum.Row.t * int array;
  prepared : Plan.t option Shape_tbl.t;
}

let context env views =
  Obs.Span.with_ ~name:"exec.plan.context" (fun () ->
      let nodes = A.Memo.create () in
      let register =
        A.Memo.fix nodes (fun register -> function
          | A.Scan _ -> ()
          | A.Select (_, q) | A.Project (_, q) -> register q
          | A.Join (_, l, r, _) | A.Union_all (l, r) ->
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
      let scope = { env; source; operand = (fun v -> Plan.Lit v) } in
      let compile = memo (compile_step scope) in
      (* [A.infer]'s typing, each node's columns read off its plan, in
         [A.infer_step]'s reverse producer order. *)
      let check =
        memo (fun check q ->
            let columns _ q =
              let* () = check q in
              Ok (Array.fold_left (fun cols c -> c :: cols) [] (layout (compile q)))
            in
            Result.map ignore (A.infer_step columns env q))
      in
      { scope; view = keep; simplify; check; compile; template = memo (template_step compile);
        prepared = Shape_tbl.create 16 })

(* Closes over the source table alone, so a caller keeping the result does
   not keep the context's node tables. *)
let scan_layout ctx =
  let source = ctx.scope.source in
  fun src -> (source src).layout

(* [q]'s plan, compiled above the views by [compile], with [args]. *)
let plan_with ctx compile args q =
  Obs.Span.with_ ~name:"exec.plan" (fun () ->
      let n = Obs.Metric.value c_nodes in
      let plan =
        let* () = ctx.check q in
        let q = ctx.simplify q in
        let template, order = ctx.template q in
        Ok { Plan.root = compile q; template; order; args }
      in
      Obs.Span.tag "nodes" (Obs.Metric.value c_nodes - n);
      plan)

let plan_in ctx q = plan_with ctx ctx.compile [||] q
let plan env q = plan_in (context env [ q ]) q

(* Whether simplifying [q] may fold one of its literals by value
   ([Query.Simplify.cond] folds contradictions and duplicates): a selection
   above the views whose condition holds a literal and another atom on the
   literal's column, or whose input simplifies to a selection, which it
   merges into.  Conservative: it refuses some shapes that fold nothing. *)
let folds_literals ctx q =
  let rec columns acc = function
    | C.And (x, y) | C.Or (x, y) -> columns (columns acc x) y
    | C.Cmp (a, _, _) | C.Is_null a | C.Is_not_null a -> a :: acc
    | C.Is_of _ | C.Is_of_only _ -> Query.Env.type_column :: acc
    | C.True | C.False -> acc
  in
  let meets c =
    let cols = columns [] c in
    C.exists_atom
      (function
        | C.Cmp (a, _, v) when not (Datum.Value.is_null v) ->
            List.length (List.filter (String.equal a) cols) > 1
        | _ -> false)
      c
  in
  let rec go q =
    (not (ctx.view q))
    &&
    match q with
    | A.Scan _ -> false
    | A.Select (c, q1) -> meets c || (match ctx.simplify q1 with A.Select _ -> true | _ -> false) || go q1
    | A.Project (_, q1) -> go q1
    | A.Join (_, l, r, _) | A.Union_all (l, r) ->
        go l || go r
  in
  go q

let c_hit = Obs.Metric.counter "exec.plan.cache.hit"
let c_miss = Obs.Metric.counter "exec.plan.cache.miss"

(* The most shapes one context keeps prepared; a context that holds this
   many starts over empty. *)
let prepared_cap = 256
let prepared ctx = Shape_tbl.length ctx.prepared

(* A copy of [v] that no plan holds yet. *)
let fresh = function
  | Datum.Value.Int n -> Datum.Value.Int (Sys.opaque_identity n)
  | Datum.Value.String s -> Datum.Value.String (Sys.opaque_identity s)
  | Datum.Value.Bool b -> Datum.Value.Bool (Sys.opaque_identity b)
  | Datum.Value.Decimal f -> Datum.Value.Decimal (Sys.opaque_identity f)
  | Datum.Value.Null -> Datum.Value.Null

(* The parameters of a shape are fresh copies of its first read's
   literals: values no view holds, so every occurrence of one in the
   unfolded query is one the literal it stands for was pushed to.  Planned
   with them, the nodes above the views hold [Param i] wherever the [i]th
   parameter occurs, found by [==] once per shape; the views' memoized
   plans keep their [Lit]s. *)
let plan_read ctx ~unfold q =
  let literals = ref [] in
  let shape =
    lift
      (fun v ->
        literals := v :: !literals;
        placeholder v)
      q
  in
  match Shape_tbl.find_opt ctx.prepared shape with
  | Some (Some p) ->
      Obs.Metric.incr c_hit;
      Obs.Span.with_ ~name:"exec.plan" (fun () ->
          Obs.Span.tag "nodes" 0;
          match !literals with [] -> Ok p | ls -> Ok { p with Plan.args = Array.of_list (List.rev ls) })
  | Some None ->
      Obs.Metric.incr c_miss;
      let* q = unfold q in
      plan_in ctx q
  | None ->
      Obs.Metric.incr c_miss;
      let params = Array.of_list (List.rev_map fresh !literals) in
      let k = ref (-1) in
      let* q =
        unfold
          (lift
             (fun _ ->
               incr k;
               params.(!k))
             q)
      in
      let operand v =
        match Array.find_index (fun p -> p == v) params with Some i -> Plan.Param i | None -> Plan.Lit v
      in
      let sc = { ctx.scope with operand } in
      let rec compile q = if ctx.view q then ctx.compile q else compile_step sc compile q in
      let* plan = plan_with ctx compile params q in
      let entry = if Array.length params > 0 && folds_literals ctx q then None else Some plan in
      if Shape_tbl.length ctx.prepared >= prepared_cap then Shape_tbl.reset ctx.prepared;
      Shape_tbl.add ctx.prepared shape entry;
      Ok plan
