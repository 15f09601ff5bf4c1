module Names = Datum.Name_set

type term = V of int | C of Datum.Value.t [@@deriving eq, ord]

type atom = { src : Query.Algebra.source; args : (string * term) list }

type constr =
  | Ty_in of int * Names.t
  | Rel of int * Query.Cond.cmp * Datum.Value.t
  | Null_c of int
  | Not_null_c of int

type role = Subset_side | Superset_side

(* ------------------------------------------------------------------ *)
(* Type sets: bitsets over a numbering of the client's types.          *)
(* ------------------------------------------------------------------ *)

module Types = struct
  type t = {
    client : Edm.Schema.t;
    names : Names.numbering;
    subtypes : (string, Names.t) Hashtbl.t;
  }

  let create client = { client; names = Names.numbering 64; subtypes = Hashtbl.create 16 }

  let subtypes t ty =
    match Hashtbl.find_opt t.subtypes ty with
    | Some s -> s
    | None ->
        let s = Names.of_list t.names (Edm.Schema.subtypes t.client ty) in
        Hashtbl.add t.subtypes ty s;
        s

  let only t ty = Names.singleton (Names.number t.names ty)
  let of_names t tys = Names.of_list t.names tys
  let names t s = Names.elements t.names s
  let mem t s ty = Names.mem t.names s ty
  let find t ty = Names.find t.names ty
end

(* ------------------------------------------------------------------ *)
(* Constraint solving: per-variable consistency and entailment.        *)
(* ------------------------------------------------------------------ *)

module Int_map = Map.Make (Int)

type info = {
  types : Names.t option;                     (* intersection of Ty_in sets *)
  eq : Datum.Value.t option;
  neq : Datum.Value.t list;
  lo : (Datum.Value.t * bool) option;         (* bound, strict *)
  hi : (Datum.Value.t * bool) option;
  null : bool;
  notnull : bool;
  inconsistent : bool;
}

type store = info Int_map.t

let info0 =
  { types = None; eq = None; neq = []; lo = None; hi = None; null = false; notnull = false;
    inconsistent = false }

let tighten_lo cur (v, strict) =
  match cur with
  | None -> Some (v, strict)
  | Some (v0, s0) ->
      let c = Datum.Value.compare v v0 in
      if c > 0 || (c = 0 && strict && not s0) then Some (v, strict) else Some (v0, s0)

let tighten_hi cur (v, strict) =
  match cur with
  | None -> Some (v, strict)
  | Some (v0, s0) ->
      let c = Datum.Value.compare v v0 in
      if c < 0 || (c = 0 && strict && not s0) then Some (v, strict) else Some (v0, s0)

let add_info i = function
  | Ty_in (_, tys) ->
      let types = match i.types with None -> Some tys | Some t -> Some (Names.inter t tys) in
      { i with types }
  | Null_c _ -> { i with null = true }
  | Not_null_c _ -> { i with notnull = true }
  | Rel (_, op, c) -> (
      let i = { i with notnull = true } in
      match op with
      | Query.Cond.Eq -> (
          match i.eq with
          | None -> { i with eq = Some c }
          | Some c0 -> if Datum.Value.equal c c0 then i else { i with inconsistent = true })
      | Query.Cond.Neq -> { i with neq = c :: i.neq }
      | Query.Cond.Lt -> { i with hi = tighten_hi i.hi (c, true) }
      | Query.Cond.Le -> { i with hi = tighten_hi i.hi (c, false) }
      | Query.Cond.Gt -> { i with lo = tighten_lo i.lo (c, true) }
      | Query.Cond.Ge -> { i with lo = tighten_lo i.lo (c, false) })

let var_of = function Ty_in (v, _) | Rel (v, _, _) | Null_c v | Not_null_c v -> v

(* Integer strict bounds round inwards so that emptiness checks are exact on
   Int; other domains keep strictness flags. *)
let norm_bounds i =
  let lo =
    match i.lo with
    | Some (Datum.Value.Int n, true) -> Some (Datum.Value.Int (n + 1), false)
    | b -> b
  in
  let hi =
    match i.hi with
    | Some (Datum.Value.Int n, true) -> Some (Datum.Value.Int (n - 1), false)
    | b -> b
  in
  if lo == i.lo && hi == i.hi then i else { i with lo; hi }

let solves = Obs.Metric.counter "containment.solves"

let find_info v store = Option.value ~default:info0 (Int_map.find_opt v store)

(* A variable's facts are a fold over its constraints, and the steps
   commute (an intersection, a disjunction of flags, a tightest bound, a
   list used as a set), so adding a constraint to a solved store is
   solving the longer list. *)
let add store con =
  let v = var_of con in
  Int_map.add v (add_info (find_info v store) con) store

let refine store v tys = add store (Ty_in (v, tys))

(* One fold of the store into per-variable facts; [consistent] and
   [entails] only read the result. *)
let solve cons =
  Obs.Metric.incr solves;
  List.fold_left add Int_map.empty cons

(* The facts of two constraint lists on one variable: those of their
   concatenation. *)
let merge_info a b =
  let eq, clash =
    match a.eq, b.eq with
    | None, e | e, None -> (e, false)
    | Some x, Some y -> (a.eq, not (Datum.Value.equal x y))
  in
  let bound tighten cur = function None -> cur | Some b -> tighten cur b in
  {
    types =
      (match a.types, b.types with
      | None, t | t, None -> t
      | Some x, Some y -> Some (Names.inter x y));
    eq;
    neq = List.rev_append b.neq a.neq;
    lo = bound tighten_lo a.lo b.lo;
    hi = bound tighten_hi a.hi b.hi;
    null = a.null || b.null;
    notnull = a.notnull || b.notnull;
    inconsistent = a.inconsistent || b.inconsistent || clash;
  }

(* The store of two concatenated lists, such as the two sides of a join. *)
let union_stores = Int_map.union (fun _ a b -> Some (merge_info a b))

(* [from]'s facts become [into]'s. *)
let rename_var store ~from ~into =
  match Int_map.find_opt from store with
  | None -> store
  | Some i -> Int_map.add into (merge_info (find_info into store) i) (Int_map.remove from store)

let in_bounds i v =
  let ok_lo = match i.lo with
    | None -> true
    | Some (b, strict) ->
        let c = Datum.Value.compare v b in
        if strict then c > 0 else c >= 0
  in
  let ok_hi = match i.hi with
    | None -> true
    | Some (b, strict) ->
        let c = Datum.Value.compare v b in
        if strict then c < 0 else c <= 0
  in
  ok_lo && ok_hi

let bool_candidates i =
  List.filter
    (fun v ->
      in_bounds i v
      && (not (List.exists (Datum.Value.equal v) i.neq))
      && match i.eq with None -> true | Some e -> Datum.Value.equal e v)
    [ Datum.Value.Bool false; Datum.Value.Bool true ]

let is_bool_constrained i =
  let is_bool = function Datum.Value.Bool _ -> true | _ -> false in
  (match i.eq with Some v -> is_bool v | None -> false)
  || List.exists is_bool i.neq
  || (match i.lo with Some (v, _) -> is_bool v | None -> false)
  || (match i.hi with Some (v, _) -> is_bool v | None -> false)

let info_consistent i =
  let i = norm_bounds i in
  if i.inconsistent then false
  else if i.null && i.notnull then false
  else if (match i.types with Some s -> Names.is_empty s | None -> false) then false
  else
    match i.eq with
    | Some v -> in_bounds i v && not (List.exists (Datum.Value.equal v) i.neq)
    | None -> (
        let bounds_ok =
          match i.lo, i.hi with
          | Some (l, ls), Some (h, hs) ->
              let c = Datum.Value.compare l h in
              if ls || hs then c < 0 else c <= 0
          | _ -> true
        in
        bounds_ok
        &&
        if is_bool_constrained i && i.notnull then bool_candidates i <> []
        else true)

let consistent store = Int_map.for_all (fun _ i -> info_consistent i) store

(* Whether [f] accepts every fact [i] holds of variable [v], each as a
   constraint on [v]; it stops at the first it rejects. *)
let for_all_facts f v i =
  let bound strict op = function
    | None -> true
    | Some (c, s) -> f (Rel (v, (if s then strict else op), c))
  in
  (match i.types with None -> true | Some tys -> f (Ty_in (v, tys)))
  && (match i.eq with None -> true | Some c -> f (Rel (v, Query.Cond.Eq, c)))
  && List.for_all (fun c -> f (Rel (v, Query.Cond.Neq, c))) i.neq
  && bound Query.Cond.Gt Query.Cond.Ge i.lo
  && bound Query.Cond.Lt Query.Cond.Le i.hi
  && ((not i.null) || f (Null_c v))
  && ((not i.notnull) || f (Not_null_c v))

let facts store =
  let acc = ref [] in
  Int_map.iter (fun v i -> ignore (for_all_facts (fun c -> acc := c :: !acc; true) v i)) store;
  !acc

let entails store target =
  let i = norm_bounds (find_info (var_of target) store) in
  match target with
  | Ty_in (_, tys) -> (
      match i.types with Some ts -> Names.subset ts tys | None -> false)
  | Null_c _ -> i.null
  | Not_null_c _ -> i.notnull
  | Rel (_, op, c) -> (
      match i.eq with
      | Some v -> Query.Cond.eval_cmp op v c
      | None -> (
          if not i.notnull then false
          else
            match op with
            | Query.Cond.Lt -> (
                match i.hi with
                | Some (h, strict) ->
                    let d = Datum.Value.compare h c in
                    d < 0 || (d = 0 && strict)
                | None -> false)
            | Query.Cond.Le -> (
                match i.hi with Some (h, _) -> Datum.Value.compare h c <= 0 | None -> false)
            | Query.Cond.Gt -> (
                match i.lo with
                | Some (l, strict) ->
                    let d = Datum.Value.compare l c in
                    d > 0 || (d = 0 && strict)
                | None -> false)
            | Query.Cond.Ge -> (
                match i.lo with Some (l, _) -> Datum.Value.compare l c >= 0 | None -> false)
            | Query.Cond.Neq ->
                List.exists (Datum.Value.equal c) i.neq || not (in_bounds i c)
            | Query.Cond.Eq -> false))

(* What is known of a constant: its value, and the type a string names when
   the numbering has seen it (a name it has not seen is in no type set). *)
let constant types c =
  let types =
    match c with
    | Datum.Value.String s -> Option.map Names.singleton (Types.find types s)
    | _ -> None
  in
  let null = Datum.Value.is_null c in
  { info0 with types; eq = Some c; null; notnull = not null }

(* Whether every fact [i] states of a variable holds of [t]: entailed by
   [store] of a variable, true of a constant. *)
let holds types store t i =
  match t with
  | V u -> for_all_facts (entails store) u i
  | C c -> for_all_facts (entails (Int_map.singleton 0 (constant types c))) 0 i

let entails_store types store image target =
  Int_map.for_all
    (fun x i -> match image x with Some t -> holds types store t i | None -> false)
    target

(* ------------------------------------------------------------------ *)
(* Normalization proper.                                               *)
(* ------------------------------------------------------------------ *)

type cq = { head : (string * term) list; body : atom list; store : store }
type output = { cqs : cq list; approximate : bool }

(* [store] is kept solved as constraints are added, so a pruning point asks
   [consistent store] without re-solving. *)
type state = { bind : (string * term) list; body : atom list; store : store }

let constrain st con = { st with store = add st.store con }

(* Which columns a scan binds: [Observed widen] the columns its parents
   read plus [widen src], [Full] (the tests' oracle) every column. *)
type width = Full | Observed of (Query.Algebra.source -> string list)

let ( let* ) = Result.bind

(* Union of two ascending lists without duplicates. *)
let rec union a b =
  match a, b with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
      let c = String.compare x y in
      if c = 0 then x :: union a' b' else if c < 0 then x :: union a' b else y :: union a b'

(* Whether the source has a column, tested in place; an unknown source is
   an error, as in [Query.Algebra.source_columns]. *)
let source_has env src =
  match src with
  | Query.Algebra.Entity_set s -> (
      match Edm.Schema.set_root env.Query.Env.client s with
      | Some root ->
          Ok
            (fun c ->
              c = Query.Env.type_column
              || Option.is_some (Edm.Schema.hierarchy_attribute env.Query.Env.client root c))
      | None -> Error ("unknown entity set " ^ s))
  | Query.Algebra.Assoc_set _ ->
      let* cols = Query.Algebra.source_columns env src in
      Ok (fun c -> List.mem c cols)
  | Query.Algebra.Table t -> (
      match Relational.Schema.find_table env.Query.Env.store t with
      | Some tbl -> Ok (Relational.Table.mem_column tbl)
      | None -> Error ("unknown table " ^ t))

(* The source-level invariant of one bound column, if any: entity rows
   range over the hierarchy's types, and keys, association ends and NOT NULL
   table columns are non-null. *)
let seed types env src =
  match src with
  | Query.Algebra.Entity_set s ->
      let root = Option.get (Edm.Schema.set_root env.Query.Env.client s) in
      let key = Edm.Schema.key_of env.Query.Env.client root in
      fun c v ->
        if c = Query.Env.type_column then Some (Ty_in (v, Types.subtypes types root))
        else if List.mem c key then Some (Not_null_c v)
        else None
  | Query.Algebra.Assoc_set _ -> fun _ v -> Some (Not_null_c v)
  | Query.Algebra.Table t ->
      let tbl = Relational.Schema.get_table env.Query.Env.store t in
      fun c v ->
        match Relational.Table.column tbl c with
        | Some col when List.mem c tbl.Relational.Table.key || not col.Relational.Table.nullable ->
            Some (Not_null_c v)
        | Some _ | None -> None

(* A scan binding [needed] (every column when [None]) and the columns
   [width] adds, each to a fresh variable, and seeding only those. *)
let scan_state types env width counter needed src =
  let* cols =
    match width, needed with
    | Full, _ | Observed _, None -> Query.Algebra.source_columns env src
    | Observed widen, Some needed ->
        let* has = source_has env src in
        Ok (List.filter has (union needed (widen src)))
  in
  let bind =
    List.map
      (fun c ->
        incr counter;
        (c, V !counter))
      cols
  in
  let seed = seed types env src in
  let seeds = List.filter_map (function c, V v -> seed c v | _, C _ -> None) bind in
  Ok { bind; body = [ { src; args = bind } ]; store = solve seeds }

(* Column [c] of a state of [q], as a parent of [q] reads it: a column [q]
   lacks reads as NULL.  Every column a parent reads is bound, so a column
   that [q] has and the state lacks is a narrowing fault; it raises rather
   than silently read as NULL.  [infer] types a subterm
   ([Query.Algebra.typing]). *)
let read infer q (st : state) c =
  match List.assoc_opt c st.bind with
  | Some t -> t
  | None -> (
      match infer q with
      | Ok cols when List.mem c cols ->
          invalid_arg (Printf.sprintf "Nf: column %s is not bound by its normalized subterm" c)
      | Ok _ | Error _ -> C Datum.Value.Null)

exception Dead_state

(* Apply one condition atom to a state; raises [Dead_state] when the atom is
   decidedly false on the state's constant bindings. *)
let apply_atom types env infer q st atom =
  let term = read infer q st in
  match atom with
  | Query.Cond.True -> st
  | Query.Cond.False -> raise Dead_state
  | Query.Cond.Is_of e -> (
      match term Query.Env.type_column with
      | V v -> constrain st (Ty_in (v, Types.subtypes types e))
      | C (Datum.Value.String ty) ->
          if Edm.Schema.mem_type env.Query.Env.client ty
             && Edm.Schema.is_subtype env.Query.Env.client ~sub:ty ~sup:e
          then st
          else raise Dead_state
      | C _ -> raise Dead_state)
  | Query.Cond.Is_of_only e -> (
      match term Query.Env.type_column with
      | V v -> constrain st (Ty_in (v, Types.only types e))
      | C (Datum.Value.String ty) -> if ty = e then st else raise Dead_state
      | C _ -> raise Dead_state)
  | Query.Cond.Is_null a -> (
      match term a with
      | V v -> constrain st (Null_c v)
      | C v -> if Datum.Value.is_null v then st else raise Dead_state)
  | Query.Cond.Is_not_null a -> (
      match term a with
      | V v -> constrain st (Not_null_c v)
      | C v -> if Datum.Value.is_null v then raise Dead_state else st)
  | Query.Cond.Cmp (a, op, c) -> (
      match term a with
      | V v -> constrain st (Rel (v, op, c))
      | C v -> if Query.Cond.eval_cmp op v c then st else raise Dead_state)
  | Query.Cond.And _ | Query.Cond.Or _ -> invalid_arg "apply_atom: non-atom"

let subst_term ~from ~into t = if equal_term t (V from) then into else t

(* Onto a constant, [from]'s facts must hold on it. *)
let subst_state types ~from ~into st =
  let sub = subst_term ~from ~into in
  let store =
    match into with
    | V v -> rename_var st.store ~from ~into:v
    | C _ ->
        if holds types st.store into (find_info from st.store) then Int_map.remove from st.store
        else raise Dead_state
  in
  {
    store;
    bind = List.map (fun (c, t) -> (c, sub t)) st.bind;
    body = List.map (fun a -> { a with args = List.map (fun (c, t) -> (c, sub t)) a.args }) st.body;
  }

(* Unify one join column.  [st.bind] holds the left occurrence; [rbind]
   tracks the right side's (possibly already substituted) bindings. *)
let unify_join_col types (st, rbind) col =
  let tl = List.assoc col st.bind and tr = List.assoc col rbind in
  let subst_rbind ~from ~into rbind =
    List.map (fun (c, t) -> (c, subst_term ~from ~into t)) rbind
  in
  match tl, tr with
  | V a, V b when a = b -> (constrain st (Not_null_c a), rbind)
  | V a, V b ->
      let st = subst_state types ~from:b ~into:(V a) st in
      (constrain st (Not_null_c a), subst_rbind ~from:b ~into:(V a) rbind)
  | V a, C v ->
      if Datum.Value.is_null v then raise Dead_state
      else (constrain st (Rel (a, Query.Cond.Eq, v)), rbind)
  | C v, V b ->
      if Datum.Value.is_null v then raise Dead_state
      else (subst_state types ~from:b ~into:(C v) st, subst_rbind ~from:b ~into:(C v) rbind)
  | C v, C w ->
      if (not (Datum.Value.is_null v)) && Datum.Value.equal v w then (st, rbind)
      else raise Dead_state

(* The source columns of projection items, ascending. *)
let item_sources items =
  List.concat_map
    (function
      | Query.Algebra.Col { src; _ } -> [ src ]
      | Query.Algebra.Coalesce { srcs; _ } -> srcs
      | Query.Algebra.Const _ -> [])
    items
  |> List.sort_uniq String.compare

(* The columns a selection reads, ascending: [$type] for its type atoms. *)
let cond_reads c =
  let cols = Query.Cond.columns c in
  List.sort_uniq String.compare
    (if Query.Cond.type_atoms c <> [] then Query.Env.type_column :: cols else cols)

(* [needed] is ascending, as [union] requires. *)
let rec needed_elim infer role needed q =
  (* Rewrite away outer joins that a projection renders exact, plus sound
     one-sided reductions on the superset side: every row of one input of a
     full outer join survives into the join's output, so projecting onto
     that input's columns yields a lower bound — enough to prove
     containment INTO the join.  (The exact rules stay role-agnostic.) *)
  (* Whether [q] has every needed column. *)
  let covered q =
    match infer q with
    | Ok cols -> List.for_all (fun c -> List.mem c cols) needed
    | Error _ -> needed = []
  in
  match q with
  | Query.Algebra.Join (Query.Join.Left, l, _r, _) when covered l -> needed_elim infer role needed l
  | Query.Algebra.Join (Query.Join.Full, l, r, on) when List.for_all (fun c -> List.mem c on) needed
    ->
      Query.Algebra.Union_all (needed_elim infer role needed l, needed_elim infer role needed r)
  | Query.Algebra.Join (Query.Join.Full, l, r, _) when role = Superset_side -> (
      match (covered l, covered r) with
      | true, true ->
          Query.Algebra.Union_all (needed_elim infer role needed l, needed_elim infer role needed r)
      | true, false -> needed_elim infer role needed l
      | false, true -> needed_elim infer role needed r
      | false, false -> q)
  | Query.Algebra.Union_all (l, r) ->
      (* Projection distributes over union. *)
      Query.Algebra.Union_all (needed_elim infer role needed l, needed_elim infer role needed r)
  | Query.Algebra.Project (items, q1) ->
      (* Narrow the projection to the needed columns and keep pushing. *)
      let items' = List.filter (fun it -> List.mem (Query.Algebra.dst_of it) needed) items in
      Query.Algebra.Project (items', needed_elim infer role (item_sources items') q1)
  | Query.Algebra.Select (c, q1) ->
      Query.Algebra.Select (c, needed_elim infer role (union needed (cond_reads c)) q1)
  | Query.Algebra.Scan _ | Query.Algebra.Join _ -> q

(* [norm types env infer role width counter needed q] normalizes [q],
   whose parents read the columns [needed] (all of them when [None]); under
   [Observed] each subterm is passed the columns its own parents read. *)
let rec norm types env infer role width counter needed q :
    (state list * bool, string) Stdlib.result =
  let observe cols = match width with Full -> None | Observed _ -> Some cols in
  let also extra = Option.map (union extra) needed in
  match q with
  | Query.Algebra.Scan src ->
      let* st = scan_state types env width counter needed src in
      Ok ([ st ], false)
  | Query.Algebra.Select (c, q1) ->
      let* sts, approx = norm types env infer role width counter (also (cond_reads c)) q1 in
      let disjuncts = Query.Cond.dnf (Query.Cond.simplify c) in
      let out =
        List.concat_map
          (fun st ->
            List.filter_map
              (fun conj ->
                match List.fold_left (apply_atom types env infer q1) st conj with
                | st -> if consistent st.store then Some st else None
                | exception Dead_state -> None)
              disjuncts)
          sts
      in
      Ok (out, approx)
  | Query.Algebra.Project (items, q1) ->
      let sources = item_sources items in
      let q1 = needed_elim infer role sources q1 in
      let* sts, approx = norm types env infer role width counter (observe sources) q1 in
      (* [Coalesce] splits a state into one case per "first non-null source"
         position, plus the all-null case; each case pins the corresponding
         null constraints.  Constant sources resolve immediately. *)
      let apply_item states item =
        match item with
        | Query.Algebra.Col { src; dst } ->
            List.map (fun (st, bind) -> (st, (dst, read infer q1 st src) :: bind)) states
        | Query.Algebra.Const { value; dst } ->
            List.map (fun (st, bind) -> (st, (dst, C value) :: bind)) states
        | Query.Algebra.Coalesce { srcs; dst } ->
            List.concat_map
              (fun ((st : state), bind) ->
                let terms = List.map (read infer q1 st) srcs in
                let with_cons cons = { st with store = List.fold_left add st.store cons } in
                let rec cases prefix_null = function
                  | [] -> [ (with_cons prefix_null, (dst, C Datum.Value.Null) :: bind) ]
                  | t :: rest -> (
                      match t with
                      | C v when Datum.Value.is_null v -> cases prefix_null rest
                      | C v -> [ (with_cons prefix_null, (dst, C v) :: bind) ]
                      | V x ->
                          (with_cons (Not_null_c x :: prefix_null), (dst, V x) :: bind)
                          :: cases (Null_c x :: prefix_null) rest)
                in
                List.filter (fun ((st : state), _) -> consistent st.store) (cases [] terms))
              states
      in
      let out =
        List.concat_map
          (fun st ->
            List.map
              (fun ((st' : state), bind) -> { st' with bind = List.rev bind })
              (List.fold_left apply_item [ (st, []) ] items))
          sts
      in
      Ok (out, approx)
  | Query.Algebra.Join (kind, l, r, on) -> (
      let needed' = also (List.sort_uniq String.compare on) in
      let* ls, al = norm types env infer role width counter needed' l in
      let* rs, ar = norm types env infer role width counter needed' r in
      let joined = join_states types ls rs on in
      match (kind, role) with
      | Query.Join.Inner, _ -> Ok (joined, al || ar)
      | (Query.Join.Left | Query.Join.Full), Superset_side -> Ok (joined, true)
      | Query.Join.Left, Subset_side -> Ok (joined @ pad_unmatched infer needed on r ls, true)
      | Query.Join.Full, Subset_side ->
          let left = pad_unmatched infer needed on r ls in
          Ok (joined @ left @ pad_unmatched infer needed on l rs, true))
  | Query.Algebra.Union_all (l, r) ->
      let* ls, al = norm types env infer role width counter needed l in
      let* rs, ar = norm types env infer role width counter needed r in
      Ok (ls @ rs, al || ar)

and join_states types ls rs on =
  List.concat_map
    (fun (stl : state) ->
      List.filter_map
        (fun (str : state) ->
          let merged =
            {
              bind = stl.bind @ List.filter (fun (c, _) -> not (List.mem c on)) str.bind;
              body = stl.body @ str.body;
              store = union_stores stl.store str.store;
            }
          in
          match List.fold_left (unify_join_col types) (merged, str.bind) on with
          | st, _ -> if consistent st.store then Some st else None
          | exception Dead_state -> None)
        rs)
    ls

and pad_state nulls st = { st with bind = st.bind @ nulls }

(* The states of one join side, each padded with NULL in the non-join
   columns of the other side [q] that the parents read: the unmatched rows
   of an outer join. *)
and pad_unmatched infer needed on q sts =
  let padded c =
    (not (List.mem c on)) && match needed with None -> true | Some n -> List.mem c n
  in
  match infer q with
  | Ok rcols ->
      (* [rcols] is reversed, so the fold yields the padding in producer order. *)
      let null acc c = if padded c then (c, C Datum.Value.Null) :: acc else acc in
      let nulls = List.fold_left null [] rcols in
      List.map (pad_state nulls) sts
  | Error e -> invalid_arg e

(* The type distinctions the superset side can observe: each of its [Ty_in]
   sets, and each of its string constants that names a numbered type, as a
   singleton.  A name with no number is in no type set, so it splits no
   class. *)
let observable_type_sets types (cq2s : cq list) =
  let of_term acc = function
    | C (Datum.Value.String s) -> (
        match Types.find types s with Some i -> Names.singleton i :: acc | None -> acc)
    | C _ | V _ -> acc
  in
  let of_args acc args = List.fold_left (fun acc (_, t) -> of_term acc t) acc args in
  List.fold_left
    (fun acc (cq : cq) ->
      let acc = of_args acc cq.head in
      let acc = List.fold_left (fun acc (a : atom) -> of_args acc a.args) acc cq.body in
      List.fold_left
        (fun acc -> function
          | Ty_in (_, tys) -> tys :: acc
          | Rel (_, _, c) -> of_term acc (C c)
          | Null_c _ | Not_null_c _ -> acc)
        acc (facts cq.store))
    [] cq2s
  |> List.sort_uniq Names.compare

(* Refine [[tys]] by every observable set: split each class into the types
   inside the set and those outside it, keeping only non-empty parts. *)
let type_partition types ~against =
  let sets = observable_type_sets types against in
  fun tys ->
    List.fold_left
      (fun classes s ->
        List.concat_map
          (fun cls ->
            (* [inter] returns [cls] itself when [cls] is inside [s]. *)
            let inside = Names.inter cls s in
            if Names.is_empty inside || inside == cls then [ cls ]
            else [ inside; Names.diff cls s ])
          classes)
      [ tys ] sets

let type_cases types ~against =
  let partition = type_partition types ~against in
  fun (cq : cq) ->
    let split_vars =
      Int_map.fold
        (fun v i acc ->
          match i.types with
          | Some tys when Names.at_least_two tys -> (
              match partition tys with
              | [ _ ] -> acc
              | classes -> (v, classes) :: acc)
          | _ -> acc)
        cq.store []
    in
    List.fold_left
      (fun cases (v, classes) ->
        List.concat_map
          (fun (cq : cq) -> List.map (fun cls -> { cq with store = refine cq.store v cls }) classes)
          cases)
      [ cq ] split_vars

(* A consistent state as a canonical CQ: each variable its store forces
   equal to a constant becomes that constant, and is dropped unless its
   other facts hold on the constant. *)
let canonical types st =
  let eqs =
    Int_map.fold (fun v i acc -> match i.eq with Some c -> (v, c) :: acc | None -> acc) st.store []
  in
  match List.fold_left (fun st (v, c) -> subst_state types ~from:v ~into:(C c) st) st eqs with
  | st -> Some { head = st.bind; body = st.body; store = st.store }
  | exception Dead_state -> None

let run ~infer types env role width q =
  let counter = ref 0 in
  let* sts, approximate = norm types env infer role width counter None q in
  let cqs =
    List.filter_map (fun st -> if consistent st.store then canonical types st else None) sts
  in
  Ok { cqs; approximate }

let normalize ?(widen = fun _ -> []) ~infer types env role q =
  run ~infer types env role (Observed widen) q

let bound_columns (cqs : cq list) =
  let add acc (a : atom) =
    let cols = List.sort_uniq String.compare (List.map fst a.args) in
    let rec go = function
      | [] -> [ (a.src, cols) ]
      | (src, cs) :: rest when Query.Algebra.equal_source src a.src -> (src, union cs cols) :: rest
      | entry :: rest -> entry :: go rest
    in
    go acc
  in
  let table = List.fold_left (fun acc (cq : cq) -> List.fold_left add acc cq.body) [] cqs in
  fun src ->
    match List.find_opt (fun (s, _) -> Query.Algebra.equal_source s src) table with
    | Some (_, cols) -> cols
    | None -> []

let atom_args (cqs : cq list) =
  List.fold_left
    (fun n (cq : cq) -> List.fold_left (fun n (a : atom) -> n + List.length a.args) n cq.body)
    0 cqs

module For_tests = struct
  let normalize_full_width types env role q =
    run ~infer:(Query.Algebra.typing env) types env role Full q

  (* Facts equal up to what adding in another order may change: the order
     of [neq], and which of two clashing equalities an inconsistent
     variable keeps. *)
  let equal_info a b =
    let opt eq x y = match x, y with None, None -> true | Some x, Some y -> eq x y | _ -> false in
    let bound (v, s) (w, t) = Datum.Value.compare v w = 0 && s = t in
    let values l = List.sort_uniq Datum.Value.compare l in
    opt (fun x y -> Names.compare x y = 0) a.types b.types
    && (opt Datum.Value.equal a.eq b.eq || (a.inconsistent && b.inconsistent))
    && List.equal Datum.Value.equal (values a.neq) (values b.neq)
    && opt bound a.lo b.lo && opt bound a.hi b.hi
    && a.null = b.null && a.notnull = b.notnull && a.inconsistent = b.inconsistent

  let equal_store = Int_map.equal equal_info
end
