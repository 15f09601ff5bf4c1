(* Plans run over positional rows ([Idb.row], a value array).  Every node's
   layout, the column at each slot of its rows, is fixed by the plan, and a
   node resolves its names to slots once, before it loops over its rows:
   conditions compile to closures over slot reads, projection items to slot
   maps and join keys to slot arrays.  A node whose input is empty resolves
   nothing, so a point read pays for the few operators its rows reach, not
   for the whole plan.  Only the root's rows become [Datum.Row.t] again. *)

module A = Query.Algebra
module C = Query.Cond
module V = Datum.Value

let c_scanned = Obs.Metric.counter "exec.rows.scanned"
let c_joined = Obs.Metric.counter "exec.rows.joined"

type row = Idb.row

(* The slot of a column a layout lacks.  Every read goes through [get], and a
   row may be shorter than its layout: past its end, every column reads
   NULL.  So an absent column reads NULL, as it does in [Cond.eval], and an
   outer join passes an unmatched row through without padding a copy. *)
let absent = max_int
let get (r : row) i = if i < Array.length r then Array.unsafe_get r i else V.Null

(* -- layouts ---------------------------------------------------------------- *)

(* A projection's layout is its items' destinations.  A join's is its left
   input's followed by the right input's columns other than the join
   columns; it keeps both input layouts as they are, so a chain of joins
   builds no growing name array, and it knows the slots of its join columns
   (on the left, where the output keeps them), so the next join of a chain
   on the same key finds them at once. *)
type layout =
  | Cols of string array
  | Dsts of A.proj_item list
  | Joined of {
      left : layout;
      on : (string * int) list;
      right : layout;
      rkey : int array;  (* the right slots of the join columns *)
      width : int;
    }

let width = function Cols a -> Array.length a | Dsts items -> List.length items | Joined j -> j.width

let rec index_from names c i =
  if i = Array.length names then absent
  else if String.equal (Array.unsafe_get names i) c then i
  else index_from names c (i + 1)

let index names c = index_from names c 0

let mem_slot j slots = Array.exists (fun k -> k = j) slots

let rec on_slot c = function
  | [] -> absent
  | (d, i) :: rest -> if String.equal d c then i else on_slot c rest

let rec dst_index c i = function
  | [] -> absent
  | item :: rest -> if String.equal (A.dst_of item) c then i else dst_index c (i + 1) rest

let rec slot layout c =
  match layout with
  | Cols names -> index names c
  | Dsts items -> dst_index c 0 items
  | Joined { left; on; right; rkey; _ } ->
      let i = on_slot c on in
      if i <> absent then i
      else
        let i = slot left c in
        if i <> absent then i
        else
          let j = slot right c in
          if j = absent || mem_slot j rkey then absent
          else
            let dropped = ref 0 in
            Array.iter (fun k -> if k < j then incr dropped) rkey;
            width left + j - !dropped

(* The names of a layout, in slot order.  A join's left names are written in
   place, so a chain of joins fills one array. *)
let rec names = function
  | Cols names -> names
  | layout ->
      let out = Array.make (width layout) "" in
      fill out 0 layout;
      out

and fill out off = function
  | Cols names -> Array.blit names 0 out off (Array.length names)
  | Dsts items -> List.iteri (fun i item -> out.(off + i) <- A.dst_of item) items
  | Joined { left; right; rkey; _ } ->
      fill out off left;
      let k = ref (off + width left) in
      let keep j c =
        if not (mem_slot j rkey) then begin
          out.(!k) <- c;
          incr k
        end
      in
      match right with
      | Dsts items -> List.iteri (fun j item -> keep j (A.dst_of item)) items
      | right -> Array.iteri keep (names right)

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* Resolution of [n] names among [names]: a scan of them while [n] times
   their number stays under [wide], a hash table over them beyond. *)
let wide = 1024

let resolver names n =
  let w = Array.length names in
  if n * w <= wide then fun c -> index names c
  else begin
    let tbl = Names.create w in
    for i = w - 1 downto 0 do
      Names.replace tbl names.(i) i
    done;
    fun c -> match Names.find tbl c with i -> i | exception Not_found -> absent
  end

(* -- conditions ------------------------------------------------------------- *)

(* [IS OF] atoms are resolved against the schema here, once: the types that
   satisfy them are listed, and a row's test looks its type up in the list. *)
let rec cond schema slot = function
  | C.True -> fun _ -> true
  | C.False -> fun _ -> false
  | C.Is_of e ->
      let types = if Edm.Schema.mem_type schema e then Edm.Schema.subtypes schema e else [] in
      type_test slot (fun ty -> List.exists (String.equal ty) types)
  | C.Is_of_only e -> type_test slot (String.equal e)
  | C.Is_null a ->
      let i = slot a in
      fun r -> V.is_null (get r i)
  | C.Is_not_null a ->
      let i = slot a in
      fun r -> not (V.is_null (get r i))
  | C.Cmp (a, op, c) ->
      let i = slot a in
      fun r -> C.eval_cmp op (get r i) c
  | C.And (a, b) ->
      let a = cond schema slot a and b = cond schema slot b in
      fun r -> a r && b r
  | C.Or (a, b) ->
      let a = cond schema slot a and b = cond schema slot b in
      fun r -> a r || b r

and type_test slot p =
  let i = slot Query.Env.type_column in
  fun r -> match get r i with V.String ty -> p ty | _ -> false

let[@tail_mod_cons] rec filter keep = function
  | [] -> []
  | r :: rest -> if keep r then r :: filter keep rest else filter keep rest

let select schema layout c rows =
  match (c, rows) with
  | C.True, _ | _, [] -> rows
  | c, rows -> filter (cond schema (slot layout) c) rows

(* -- projections ------------------------------------------------------------ *)

type item = Slot of int | Const of V.t | Coalesce of item array  (* first non-NULL *)

let rec value r = function
  | Slot i -> get r i
  | Const v -> v
  | Coalesce items -> first r items 0

and first r items k =
  if k = Array.length items then V.Null
  else match value r items.(k) with V.Null -> first r items (k + 1) | v -> v

let compile_items resolve items =
  let out = Array.make (List.length items) (Const V.Null) in
  List.iteri
    (fun k item ->
      out.(k) <-
        (match item with
        | A.Col { src; _ } -> resolve src
        | A.Const { value; _ } -> Const value
        | A.Coalesce { srcs; _ } -> Coalesce (Array.of_list (List.map resolve srcs))))
    items;
  out

let project items r =
  let out = Array.make (Array.length items) V.Null in
  for k = 0 to Array.length items - 1 do
    Array.unsafe_set out k (value r (Array.unsafe_get items k))
  done;
  out

(* The item lists of the projections directly below a projection (a
   [Project] node or a scan's fused one), pushed onto [acc] so that the
   innermost comes first, and the plan below them. *)
let rec projections acc = function
  | Plan.Project (items, below) -> projections (items :: acc) below
  | Plan.Scan ({ proj = Some items; _ } as s) -> (items :: acc, Plan.Scan { s with proj = None })
  | below -> (acc, below)

(* One slot map for stacked projections: each list is compiled against the
   one below it, and a column an upper list reads is replaced by the item
   that computes it. *)
let rec fuse resolve = function
  | [] -> [||]
  | [ items ] -> compile_items resolve items
  | items :: above ->
      let compiled = compile_items resolve items in
      let at = resolver (names (Dsts items)) (List.length (List.hd above)) in
      fuse (fun c -> let i = at c in if i = absent then Slot absent else compiled.(i)) above

(* Fusing a wide projection (many names looked up in a wide input) costs
   more than the rows of a point read, and the same view projection is
   fused again for every read.  So each domain keeps the slot maps of the
   wide projections it has fused, keyed by their item lists (by physical
   identity: the views' lists are shared by every plan over the same views)
   and checked against the input's names; the table is emptied when it
   holds [max_cached]. *)
module Lists = Hashtbl.Make (struct
  type t = A.proj_item list list

  let equal = List.equal ( == )
  let hash = List.fold_left (fun h items -> (h * 31) + List.length items) 0
end)

let max_cached = 64
let slot_maps = Domain.DLS.new_key (fun () -> Lists.create 16)

let fuse_over names n lists =
  let at = resolver names n in
  fuse (fun c -> Slot (at c)) lists

let slot_map input lists =
  let names = names input in
  let n = List.length (List.hd lists) in
  if n * Array.length names <= wide then fuse_over names n lists
  else begin
    let tbl = Domain.DLS.get slot_maps in
    match Lists.find_opt tbl lists with
    | Some (cached, items)
      when Array.length cached = Array.length names && Array.for_all2 String.equal cached names ->
        items
    | Some _ | None ->
        let items = fuse_over names n lists in
        if Lists.length tbl >= max_cached then Lists.reset tbl;
        Lists.replace tbl lists (names, items);
        items
  end

(* -- joins ------------------------------------------------------------------ *)

module Key_tbl = Hashtbl.Make (struct
  type t = V.t list

  let equal a b = List.compare V.compare a b = 0
  let hash = Hashtbl.hash
end)

(* For a left row, the indices of the right rows it matches, highest first.
   A join column that is NULL (or absent) on either side matches nothing;
   with no join columns every pair matches. *)
let prober ~lkey ~rkey rarr =
  let n = Array.length rarr in
  let or_empty = Option.value ~default:[] in
  if Array.length lkey = 0 then
    let all = List.init n (fun k -> n - 1 - k) in
    fun _ -> all
  else if Array.length lkey = 1 then begin
    let tbl = Idb.Value_tbl.create n in
    let lk = lkey.(0) and rk = rkey.(0) in
    Array.iteri
      (fun j r ->
        let v = get r rk in
        if not (V.is_null v) then Idb.Value_tbl.replace tbl v (j :: or_empty (Idb.Value_tbl.find_opt tbl v)))
      rarr;
    fun l ->
      let v = get l lk in
      if V.is_null v then [] else or_empty (Idb.Value_tbl.find_opt tbl v)
  end
  else begin
    let tbl = Key_tbl.create n in
    let key r k = Array.to_list (Array.map (get r) k) in
    Array.iteri
      (fun j r ->
        if not (Array.exists (fun i -> V.is_null (get r i)) rkey) then begin
          let k = key r rkey in
          Key_tbl.replace tbl k (j :: or_empty (Key_tbl.find_opt tbl k))
        end)
      rarr;
    fun l ->
      if Array.exists (fun i -> V.is_null (get l i)) lkey then []
      else or_empty (Key_tbl.find_opt tbl (key l lkey))
  end

(* Output rows in nested-loop order: each left row's matches in right input
   order, or the left row itself when it has none and the join keeps it;
   then, for a full join, the unmatched right rows. *)
let hash_join kind ~lwidth ~lkey ~rkey ~keep lrows rrows =
  let width = lwidth + Array.length keep in
  let rarr = Array.of_list rrows and larr = Array.of_list lrows in
  let hits = Array.map (prober ~lkey ~rkey rarr) larr in
  Obs.Metric.incr ~by:(Array.fold_left (fun n b -> n + List.length b) 0 hits) c_joined;
  let fill_right out r =
    for k = 0 to Array.length keep - 1 do
      Array.unsafe_set out (lwidth + k) (get r (Array.unsafe_get keep k))
    done;
    out
  in
  let combine l r =
    let out = Array.make width V.Null in
    Array.blit l 0 out 0 (Array.length l);
    fill_right out r
  in
  (* A right-only row takes its join columns from the right. *)
  let right_only r =
    let out = Array.make width V.Null in
    Array.iteri (fun k l -> out.(l) <- get r rkey.(k)) lkey;
    fill_right out r
  in
  let acc = ref [] in
  if kind = Query.Join.Full then begin
    let matched = Array.make (Array.length rarr) false in
    Array.iter (List.iter (fun j -> matched.(j) <- true)) hits;
    for j = Array.length rarr - 1 downto 0 do
      if not matched.(j) then acc := right_only rarr.(j) :: !acc
    done
  end;
  for i = Array.length larr - 1 downto 0 do
    let l = larr.(i) in
    match hits.(i) with
    | [] -> if kind <> Query.Join.Inner then acc := l :: !acc
    | bucket -> List.iter (fun j -> acc := combine l rarr.(j) :: !acc) bucket
  done;
  !acc

(* -- plans ------------------------------------------------------------------ *)

let scan idb source access =
  let s = Idb.source idb source in
  let names = Idb.layout s in
  let rows =
    match access with
    | Plan.Full_scan -> Idb.rows s
    | Plan.Index_eq { col; value } ->
        let i = index names col in
        if i = absent then [] else Idb.lookup s i value
  in
  Obs.Metric.incr ~by:(List.length rows) c_scanned;
  (names, rows)

(* A plan's rows, each still to go through the slot map of the plan's
   projection when it has one: a projection returns its input rows and the
   map, so the root's projection builds each [Datum.Row.t] straight from an
   input row. *)
let rec output idb schema plan =
  match plan with
  | Plan.Scan { source; access; filter; proj = Some items } ->
      let names, rows = scan idb source access in
      projection schema items [ items ] (Cols names) rows filter
  | Plan.Project (items, below) -> (
      match projections [ items ] below with
      | lists, Plan.Scan { source; access; filter; proj = None } ->
          let names, rows = scan idb source access in
          projection schema items lists (Cols names) rows filter
      | lists, below ->
          let input, rows = exec idb schema below in
          projection schema items lists input rows C.True)
  | plan ->
      let layout, rows = exec idb schema plan in
      (layout, rows, None)

and exec idb schema plan =
  match plan with
  | Plan.Scan { source; access; filter; proj = None } ->
      let names, rows = scan idb source access in
      let layout = Cols names in
      (layout, select schema layout filter rows)
  | Plan.Scan { proj = Some _; _ } | Plan.Project _ -> (
      match output idb schema plan with
      | layout, rows, None -> (layout, rows)
      | layout, rows, Some items -> (layout, List.map (project items) rows))
  | Plan.Filter (c, n) ->
      let layout, rows = exec idb schema n in
      (layout, select schema layout c rows)
  | Plan.Hash_join { spec; left; right } ->
      let ll, lrows = exec idb schema left in
      let rl, rrows = exec idb schema right in
      let on = List.map (fun c -> (c, slot ll c)) spec.on in
      let rkey = Array.of_list (List.map (slot rl) spec.on) in
      let lwidth = width ll and rwidth = width rl in
      let layout =
        Joined { left = ll; on; right = rl; rkey; width = lwidth + rwidth - Array.length rkey }
      in
      let rows =
        match (spec.kind, lrows, rrows) with
        | _, [], [] | (Query.Join.Inner | Query.Join.Left), [], _ | Query.Join.Inner, _, [] -> []
        | (Query.Join.Left | Query.Join.Full), _, [] -> lrows
        | kind, lrows, rrows ->
            let keep =
              Array.of_seq (Seq.filter (fun j -> not (mem_slot j rkey)) (Seq.init rwidth Fun.id))
            in
            let lkey = Array.of_list (List.map snd on) in
            hash_join kind ~lwidth ~lkey ~rkey ~keep lrows rrows
      in
      (layout, rows)
  | Plan.Append (a, b) -> (
      (* The right input's rows are permuted into the left input's layout. *)
      let la, arows = exec idb schema a in
      match exec idb schema b with
      | _, [] -> (la, arows)
      | lb, brows ->
          let lnames = names la and bnames = names lb in
          if Array.length lnames = Array.length bnames && Array.for_all2 String.equal lnames bnames
          then (la, arows @ brows)
          else
            let perm = Array.map (resolver bnames (Array.length lnames)) lnames in
            (la, arows @ List.map (fun r -> Array.map (get r) perm) brows))

(* A projection over [rows] of the [input] layout that still need [filter],
   with the projections [lists] (innermost first, [items] last) fused into
   one slot map, so each output row is built once: the rows that pass the
   filter and the map.  Nothing is resolved unless some row passes. *)
and projection schema items lists input rows filter =
  let layout = Dsts items in
  match select schema input filter rows with
  | [] -> (layout, [], None)
  | rows -> (layout, rows, Some (slot_map input lists))

(* -- root conversion -------------------------------------------------------- *)

(* Each root row is a [Datum.Row.mapi] over a template of the root layout:
   one node per column.  [mapi] visits the columns in ascending name order,
   so the slots are listed in that order.  A template costs a path copy per
   column, more than the rows of a point read, so each domain keeps the
   templates of the layouts it has converted; the table is emptied when it
   holds [max_templates]. *)
type key = Items of A.proj_item list | Names of string array

module Templates = Hashtbl.Make (struct
  type t = key

  let equal a b =
    match (a, b) with
    | Items a, Items b -> a == b
    | Names a, Names b -> a = b
    | Items _, Names _ | Names _, Items _ -> false

  let hash = function Items a -> List.length a | Names a -> Hashtbl.hash a
end)

let max_templates = 64
let templates = Domain.DLS.new_key (fun () -> Templates.create 16)

(* A projection root is keyed by its item list, whose physical identity
   fixes its names: the lists of the views' projections are shared by every
   plan over the same views. *)
let template layout =
  let tbl = Domain.DLS.get templates in
  let key = match layout with Dsts items -> Items items | layout -> Names (names layout) in
  match Templates.find tbl key with
  | t -> t
  | exception Not_found ->
      let names = names layout in
      let row = Datum.Row.of_list (Array.to_list (Array.map (fun c -> (c, V.Null)) names)) in
      let at = resolver names (Array.length names) in
      let t = (row, Array.of_list (List.map at (Datum.Row.columns row))) in
      if Templates.length tbl >= max_templates then Templates.reset tbl;
      Templates.add tbl key t;
      t

let to_rows layout items = function
  | [] -> []
  | rows ->
      let template, order = template layout in
      let row = ref [||] and k = ref (-1) in
      let column _ _ =
        incr k;
        let i = Array.unsafe_get order !k in
        match items with None -> get !row i | Some items -> value !row (Array.unsafe_get items i)
      in
      List.map
        (fun r ->
          row := r;
          k := -1;
          Datum.Row.mapi column template)
        rows

let rows ?jobs:_ idb plan =
  Obs.Span.with_ ~name:"exec.run" (fun () ->
      let layout, rows, items = output idb (Idb.env idb).Query.Env.client plan in
      let out = to_rows layout items rows in
      Obs.Span.tag "rows" (List.length out);
      out)
