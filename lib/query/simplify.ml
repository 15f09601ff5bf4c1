(* -- condition cleanup ---------------------------------------------------- *)

let is_atom = function
  | Cond.True | Cond.False | Cond.And _ | Cond.Or _ -> false
  | Cond.Is_of _ | Cond.Is_of_only _ | Cond.Is_null _ | Cond.Is_not_null _ | Cond.Cmp _ -> true

(* A lone comparison against NULL is never satisfied. *)
let unsat_atom = function
  | Cond.Cmp (_, _, v) -> Datum.Value.is_null v
  | _ -> false

(* The atomic conjuncts of [c], in [Cond.conjuncts] order. *)
let rec atomic_conjuncts c acc =
  match c with
  | Cond.And (a, b) -> atomic_conjuncts a (atomic_conjuncts b acc)
  | c -> if is_atom c then c :: acc else acc

(* Whether two atoms of the list contradict, the earlier one first. *)
let rec contradicts x = function
  | [] -> false
  | y :: rest -> Cond.atoms_contradict x y || contradicts x rest

let rec contradictory_pair = function
  | [] -> false
  | x :: rest -> contradicts x rest || contradictory_pair rest

(* Fold conjunctions whose atomic conjuncts are jointly unsatisfiable
   ([A = c AND A = c'], [A IS NULL AND A > 3], crossed bounds, ...) to
   [False].  Subtrees without a contradiction are returned unchanged, so the
   rewrite never perturbs already-clean views.  The quadratic pairwise scan
   runs once per maximal [And] chain (a contradiction inside a sub-chain is
   also one of the whole chain), keeping long compiled-view guards cheap. *)
let rec fold_contradictions ~top c =
  match c with
  | Cond.And (a, b) ->
      let a' = fold_contradictions ~top:false a and b' = fold_contradictions ~top:false b in
      if a' = Cond.False || b' = Cond.False then Cond.False
      else
        let c' = if a' == a && b' == b then c else Cond.And (a', b') in
        if
          top
          &&
          let atoms = atomic_conjuncts c' [] in
          List.exists unsat_atom atoms || contradictory_pair atoms
        then Cond.False
        else c'
  | Cond.Or (a, b) -> (
      match (fold_contradictions ~top:true a, fold_contradictions ~top:true b) with
      | Cond.False, x | x, Cond.False -> x
      | x, y -> if x == a && y == b then c else Cond.Or (x, y))
  | c -> if is_atom c && unsat_atom c then Cond.False else c

let cond c =
  let c = Cond.simplify c in
  match fold_contradictions ~top:true c with
  | c' when c' == c || Cond.equal c c' -> c
  | c' -> Cond.simplify c'

(* The folding returns [False] or a term without [False] in it, which
   [Cond.simplify] cannot turn into [False]: so one folding decides. *)
let unsat c =
  match fold_contradictions ~top:true (Cond.simplify c) with Cond.False -> true | _ -> false

(* Compose two projection layers: the outer items re-expressed directly over
   the input of the inner items. *)
let compose_projections outer inner =
  let resolve src =
    List.find_opt (fun item -> Algebra.dst_of item = src) inner
  in
  let exception Opaque in
  try
    Some
      (List.map
         (fun item ->
           match item with
           | Algebra.Const _ -> item
           | Algebra.Coalesce _ -> raise Opaque
           | Algebra.Col { src; dst } -> (
               match resolve src with
               | Some (Algebra.Col { src = src'; _ }) -> Algebra.col_as src' dst
               | Some (Algebra.Const { value; _ }) -> Algebra.const value dst
               | Some (Algebra.Coalesce _) | None -> raise Opaque))
         outer)
  with Opaque -> None

(* The rest of [rcols] once [items], read last first, named its first
   columns in turn; raises [Exit] where one does not. *)
let rec unmatched items rcols =
  match items with
  | [] -> rcols
  | item :: others -> (
      match (item, unmatched others rcols) with
      | Algebra.Col { src; _ }, c :: tl when String.equal src c -> tl
      | _ -> raise_notrace Exit)

(* Only a list of plain [Col] items can be an identity, so [infer] types the
   (already simplified) input only for those.  [infer]'s lists are in
   reverse producer order ([Algebra.infer_step]), so the items, read last
   first, must name them in turn. *)
let is_identity_projection infer items q =
  List.for_all (function Algebra.Col { src; dst } -> src = dst | _ -> false) items
  &&
  match infer q with
  | Error _ -> false
  | Ok rcols -> (
      List.compare_lengths items rcols = 0
      && match unmatched items rcols with _ -> true | exception Exit -> false)

(* The compiled views form a DAG, so both the rewrite and the typing of its
   identity-projection test are memoized on physical identity, for as long
   as the returned function lives, and only at the nodes [keep] picks.  A
   node whose rewrite changes nothing comes back physically unchanged, so an
   already simplified query is returned [==]. *)
let query ?keep env =
  let infer = Algebra.typing ?keep env in
  let step query q =
    let binary mk l r =
      let l' = query l and r' = query r in
      if l' == l && r' == r then q else mk l' r'
    in
    match q with
    | Algebra.Scan _ -> q
    | Algebra.Select (c, q1) -> (
        let q1' = query q1 in
        match cond c with
        | Cond.True -> q1'
        | c' -> (
            match q1' with
            | Algebra.Select (c2, q2) -> Algebra.Select (cond (Cond.And (c', c2)), q2)
            | _ ->
                if q1' == q1 && (c' == c || Cond.equal c' c) then q
                else Algebra.Select (c', q1')))
    | Algebra.Project (items, q1) -> (
        let q1' = query q1 in
        match q1' with
        | Algebra.Project (inner, q2) -> (
            match compose_projections items inner with
            | Some merged -> query (Algebra.Project (merged, q2))
            | None -> if q1' == q1 then q else Algebra.Project (items, q1'))
        | _ ->
            if is_identity_projection infer items q1' then q1'
            else if q1' == q1 then q
            else Algebra.Project (items, q1'))
    | Algebra.Join (kind, l, r, on) -> binary (fun l r -> Algebra.Join (kind, l, r, on)) l r
    | Algebra.Union_all (l, r) -> binary (fun l r -> Algebra.Union_all (l, r)) l r
  in
  Algebra.Memo.fix ?keep (Algebra.Memo.create ()) step
