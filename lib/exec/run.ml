(* Plans run over positional rows ([Idb.row], a value array).  The planner
   has already resolved every name to a slot, so a node only loops over its
   rows: conditions are slot tests, projections slot maps and join keys
   slot arrays.  Only the root's rows become [Datum.Row.t] again. *)

module V = Datum.Value

let c_scanned = Obs.Metric.counter "exec.rows.scanned"
let c_joined = Obs.Metric.counter "exec.rows.joined"

(* Every read goes through [get], and a row may be shorter than its layout:
   past its end, every column reads NULL.  So [Plan.absent] reads NULL, as
   an absent column does in [Cond.eval], and an outer join passes an
   unmatched row through without padding a copy.  This is
   [Datum.Tuple.get], defined here so that the runtime's hottest call is
   inlined. *)
let get (r : Idb.row) i = if i < Array.length r then Array.unsafe_get r i else V.Null

(* [Plan.operand], defined here to be inlined too. *)
let operand args = function Plan.Lit v -> v | Plan.Param i -> args.(i)

let rec holds args r = function
  | Plan.Always -> true
  | Plan.Never -> false
  | Plan.Type_in (i, types) -> (
      match get r i with V.String ty -> List.exists (String.equal ty) types | _ -> false)
  | Plan.Null i -> V.is_null (get r i)
  | Plan.Not_null i -> not (V.is_null (get r i))
  | Plan.Cmp (i, op, v) -> Query.Cond.eval_cmp op (get r i) (operand args v)
  | Plan.Both (a, b) -> holds args r a && holds args r b
  | Plan.Either (a, b) -> holds args r a || holds args r b

(* No closure per call: the rows [holds args p] keeps. *)
let[@tail_mod_cons] rec filter args p = function
  | [] -> []
  | r :: rest -> if holds args r p then r :: filter args p rest else filter args p rest

let select args pred rows = match pred with Plan.Always -> rows | p -> filter args p rows

let rec value r = function
  | Plan.Slot i -> get r i
  | Plan.Const v -> v
  | Plan.Coalesce items -> first r items 0

and first r items k =
  if k = Array.length items then V.Null
  else match value r items.(k) with V.Null -> first r items (k + 1) | v -> v

let project items r =
  let out = Array.make (Array.length items) V.Null in
  for k = 0 to Array.length items - 1 do
    Array.unsafe_set out k (value r (Array.unsafe_get items k))
  done;
  out

(* -- join rows ------------------------------------------------------------- *)

let fill_right (j : Plan.join) out r =
  let lwidth = Array.length j.layout - Array.length j.keep in
  for k = 0 to Array.length j.keep - 1 do
    Array.unsafe_set out (lwidth + k) (get r (Array.unsafe_get j.keep k))
  done;
  out

let matched (j : Plan.join) l r =
  let out = Array.make (Array.length j.layout) V.Null in
  Array.blit l 0 out 0 (Array.length l);
  fill_right j out r

let right_only (j : Plan.join) r =
  let out = Array.make (Array.length j.layout) V.Null in
  Array.iteri (fun k l -> out.(l) <- get r j.rkey.(k)) j.lkey;
  fill_right j out r

(* Keys of several join columns, compared and hashed value by value. *)
module Key_tbl = Hashtbl.Make (struct
  type t = V.t array

  let equal a b =
    let rec go i = i = Array.length a || (Idb.same_value a.(i) b.(i) && go (i + 1)) in
    Array.length a = Array.length b && go 0

  let hash k = Array.fold_left (fun h v -> (h * 31) + V.hash v) 0 k
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
        if not (V.is_null v) then Idb.push tbl v j)
      rarr;
    fun l ->
      let v = get l lk in
      if V.is_null v then [] else Idb.bucket tbl v
  end
  else begin
    let tbl = Key_tbl.create n in
    let key r k = Array.map (get r) k in
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
let hash_join (j : Plan.join) lrows rrows =
  let kind = j.spec.kind in
  let rarr = Array.of_list rrows and larr = Array.of_list lrows in
  let hits = Array.map (prober ~lkey:j.lkey ~rkey:j.rkey rarr) larr in
  Obs.Metric.incr ~by:(Array.fold_left (fun n b -> n + List.length b) 0 hits) c_joined;
  let acc = ref [] in
  if kind = Query.Join.Full then begin
    let hit = Array.make (Array.length rarr) false in
    Array.iter (List.iter (fun k -> hit.(k) <- true)) hits;
    for k = Array.length rarr - 1 downto 0 do
      if not hit.(k) then acc := right_only j rarr.(k) :: !acc
    done
  end;
  for i = Array.length larr - 1 downto 0 do
    let l = larr.(i) in
    match hits.(i) with
    | [] -> if kind <> Query.Join.Inner then acc := l :: !acc
    | bucket -> List.iter (fun k -> acc := matched j l rarr.(k) :: !acc) bucket
  done;
  !acc

(* -- plans ------------------------------------------------------------------ *)

let scan idb args source access =
  let s = Idb.source idb source in
  let rows =
    match access with
    | Plan.Full_scan -> Idb.rows s
    | Plan.Index_eq { slot; value; _ } -> Idb.lookup s slot (operand args value)
  in
  Obs.Metric.incr ~by:(List.length rows) c_scanned;
  rows

(* A node's rows, each still to go through the node's projection map when
   it has one: a projection returns the rows below its stack and its fused
   map, so the root's projection builds each [Datum.Row.t] straight from an
   input row.  [args] are the plan's, which its [Param]s read. *)
let rec output idb args = function
  | Plan.Scan { source; access; pred; map; _ } -> (select args pred (scan idb args source access), map)
  | Plan.Project { fused; input; _ } -> (below idb args input, Some fused)
  | Plan.Filter { pred; input; _ } -> (select args pred (exec idb args input), None)
  | Plan.Hash_join j -> (join idb args j, None)
  | Plan.Append { left; right; perm } -> (
      let lrows = exec idb args left in
      match (exec idb args right, perm) with
      | [], _ -> (lrows, None)
      | rrows, None -> (lrows @ rrows, None)
      | rrows, Some perm -> (lrows @ List.map (fun r -> Array.map (get r) perm) rrows, None))

and exec idb args node =
  match output idb args node with rows, None -> rows | rows, Some map -> List.map (project map) rows

(* The rows below a stack of projections, which its fused map reads. *)
and below idb args = function
  | Plan.Project { input; _ } -> below idb args input
  | node -> fst (output idb args node)

and join idb args (j : Plan.join) =
  let lrows = exec idb args j.left and rrows = exec idb args j.right in
  match (j.spec.kind, lrows, rrows) with
  | _, [], [] | (Query.Join.Inner | Query.Join.Left), [], _ | Query.Join.Inner, _, [] -> []
  | (Query.Join.Left | Query.Join.Full), _, [] -> lrows
  | _, lrows, rrows -> hash_join j lrows rrows

(* -- root conversion -------------------------------------------------------- *)

(* Root rows are [Datum.Row.mapi]s over the plan's template, which visits
   the columns in ascending name order, the order of [order]; one closure
   serves every row. *)
let to_rows (plan : Plan.t) read rows =
  let row = ref [||] and k = ref (-1) in
  let column _ _ =
    incr k;
    read !row (Array.unsafe_get plan.order !k)
  in
  List.map
    (fun r ->
      row := r;
      k := -1;
      Datum.Row.mapi column plan.template)
    rows

let rows ?jobs:_ idb (plan : Plan.t) =
  Obs.Span.with_ ~name:"exec.run" (fun () ->
      let out =
        match output idb plan.args plan.root with
        | rows, None -> to_rows plan get rows
        | rows, Some map -> to_rows plan (fun r i -> value r (Array.unsafe_get map i)) rows
      in
      Obs.Span.tag "rows" (List.length out);
      out)
