let ( let* ) = Result.bind

let checks = Obs.Metric.counter "containment.checks"
let cq_pairs = Obs.Metric.counter "containment.cq_pairs"
let hom_steps = Obs.Metric.counter "containment.hom_steps"
let approximate_checks = Obs.Metric.counter "containment.approximate_checks"
let cache_hits = Obs.Metric.counter "containment.cache_hits"

(* Replace every variable that the store forces equal to a constant by that
   constant, so homomorphism targets are syntactically explicit. *)
let canonicalize (cq : Nf.cq) =
  let eqs =
    List.filter_map
      (function Nf.Rel (v, Query.Cond.Eq, c) -> Some (v, c) | _ -> None)
      cq.Nf.cons
  in
  let sub = function
    | Nf.V v as t -> (
        match List.assoc_opt v eqs with Some c -> Nf.C c | None -> t)
    | Nf.C _ as t -> t
  in
  {
    Nf.head = List.map (fun (c, t) -> (c, sub t)) cq.Nf.head;
    body =
      List.map
        (fun (a : Nf.atom) -> { a with Nf.args = List.map (fun (c, t) -> (c, sub t)) a.Nf.args })
        cq.Nf.body;
    (* Keep all constraints: those on substituted variables are still sound
       (they were consistent), and [Rel Eq] on them remains available for
       entailment queries about the variable itself. *)
    cons = cq.Nf.cons;
  }

module Int_map = Map.Make (Int)

(* Try to extend [subst] so that term [t2] of the candidate (superset) CQ
   maps onto term [t1] of the target (subset) CQ. *)
let unify_term cons1 subst t2 t1 =
  match t2 with
  | Nf.C v2 -> (
      match t1 with
      | Nf.C v1 -> if Datum.Value.equal v1 v2 then Some subst else None
      | Nf.V u ->
          if Nf.entails cons1 (Nf.Rel (u, Query.Cond.Eq, v2)) then Some subst else None)
  | Nf.V x -> (
      match Int_map.find_opt x subst with
      | Some t -> if Nf.equal_term t t1 then Some subst else None
      | None -> Some (Int_map.add x t1 subst))

(* The image of a constraint of the candidate CQ under the substitution must
   be entailed by the target CQ's store. *)
let constraint_entailed cons1 subst con =
  let on_var v k =
    match Int_map.find_opt v subst with
    | Some (Nf.V u) -> k (`Var u)
    | Some (Nf.C c) -> k (`Const c)
    | None -> false
  in
  match con with
  | Nf.Ty_in (v, tys) ->
      on_var v (function
        | `Var u -> Nf.entails cons1 (Nf.Ty_in (u, tys))
        | `Const (Datum.Value.String ty) -> List.mem ty tys
        | `Const _ -> false)
  | Nf.Rel (v, op, c) ->
      on_var v (function
        | `Var u -> Nf.entails cons1 (Nf.Rel (u, op, c))
        | `Const value -> Query.Cond.eval_cmp op value c)
  | Nf.Null_c v ->
      on_var v (function
        | `Var u -> Nf.entails cons1 (Nf.Null_c u)
        | `Const value -> Datum.Value.is_null value)
  | Nf.Not_null_c v ->
      on_var v (function
        | `Var u -> Nf.entails cons1 (Nf.Not_null_c u)
        | `Const value -> not (Datum.Value.is_null value))

let homomorphism (cq2 : Nf.cq) (cq1 : Nf.cq) =
  Obs.Metric.incr cq_pairs;
  (* Seed the substitution from the heads: output columns must align. *)
  let seed =
    List.fold_left
      (fun acc (col, t2) ->
        match acc with
        | None -> None
        | Some subst -> (
            match List.assoc_opt col cq1.Nf.head with
            | None -> None
            | Some t1 -> unify_term cq1.Nf.cons subst t2 t1))
      (Some Int_map.empty) cq2.Nf.head
  in
  match seed with
  | None -> false
  | Some seed ->
      let same_cols (a2 : Nf.atom) (a1 : Nf.atom) =
        Query.Algebra.equal_source a2.Nf.src a1.Nf.src
      in
      let rec assign subst = function
        | [] ->
            List.for_all (constraint_entailed cq1.Nf.cons subst) cq2.Nf.cons
        | (a2 : Nf.atom) :: rest ->
            List.exists
              (fun (a1 : Nf.atom) ->
                Obs.Metric.incr hom_steps;
                if not (same_cols a2 a1) then false
                else
                  let subst' =
                    List.fold_left
                      (fun acc (col, t2) ->
                        match acc with
                        | None -> None
                        | Some subst -> (
                            match List.assoc_opt col a1.Nf.args with
                            | None -> None
                            | Some t1 -> unify_term cq1.Nf.cons subst t2 t1))
                      (Some subst) a2.Nf.args
                  in
                  match subst' with None -> false | Some subst' -> assign subst' rest)
              cq1.Nf.body
      in
      (* Heads must cover the same columns. *)
      let cols cq = List.sort String.compare (List.map fst cq.Nf.head) in
      cols cq1 = cols cq2 && assign seed cq2.Nf.body

(* Chase the client schema's referential axioms into a subset-side CQ:
   every association tuple's endpoints are keys of existing entities of the
   endpoint types (guaranteed by [Edm.Instance.conforms]).  Materializing
   the implied entity atoms lets the homomorphism find them — e.g. check 3
   of AddAssocFK maps an entity-set atom onto the endpoint of an
   association atom. *)
let chase_assoc env (cq : Nf.cq) =
  let client = env.Query.Env.client in
  let max_var =
    let of_term acc = function Nf.V v -> max acc v | Nf.C _ -> acc in
    let of_con acc = function
      | Nf.Ty_in (v, _) | Nf.Rel (v, _, _) | Nf.Null_c v | Nf.Not_null_c v -> max acc v
    in
    let acc = List.fold_left (fun acc (_, t) -> of_term acc t) 0 cq.Nf.head in
    let acc =
      List.fold_left
        (fun acc (a : Nf.atom) -> List.fold_left (fun acc (_, t) -> of_term acc t) acc a.Nf.args)
        acc cq.Nf.body
    in
    List.fold_left of_con acc cq.Nf.cons
  in
  let counter = ref max_var in
  let fresh () = incr counter; !counter in
  let endpoint_atoms (assoc : Edm.Association.t) args etype =
    match Edm.Schema.set_of_type client etype with
    | None -> ([], [])
    | Some set ->
        let key = Edm.Schema.key_of client etype in
        let cols =
          match Query.Algebra.infer env (Query.Algebra.Scan (Query.Algebra.Entity_set set)) with
          | Ok cols -> cols
          | Error _ -> []
        in
        ignore assoc;
        let bind =
          List.map
            (fun c ->
              if c = Query.Env.type_column then (c, Nf.V (fresh ()))
              else
                match List.mem c key, List.assoc_opt (Edm.Association.qualify ~etype c) args with
                | true, Some t -> (c, t)
                | _, _ -> (c, Nf.V (fresh ())))
            cols
        in
        let tyvar =
          match List.assoc Query.Env.type_column bind with Nf.V v -> v | Nf.C _ -> assert false
        in
        ( [ { Nf.src = Query.Algebra.Entity_set set; args = bind } ],
          [ Nf.Ty_in (tyvar, Edm.Schema.subtypes client etype) ] )
  in
  let extra_atoms, extra_cons =
    List.fold_left
      (fun (atoms, cons) (a : Nf.atom) ->
        match a.Nf.src with
        | Query.Algebra.Assoc_set name -> (
            match Edm.Schema.find_association client name with
            | None -> (atoms, cons)
            | Some assoc ->
                let a1, c1 = endpoint_atoms assoc a.Nf.args assoc.Edm.Association.end1 in
                let a2, c2 = endpoint_atoms assoc a.Nf.args assoc.Edm.Association.end2 in
                (atoms @ a1 @ a2, cons @ c1 @ c2))
        | Query.Algebra.Entity_set _ | Query.Algebra.Table _ -> (atoms, cons))
      ([], []) cq.Nf.body
  in
  { cq with Nf.body = cq.Nf.body @ extra_atoms; cons = cq.Nf.cons @ extra_cons }

(* -- memoization ------------------------------------------------------------ *)

(* Verdicts depend on the schemas as well as the queries, so the memo key
   carries the whole environment and key equality compares both schemas in
   full (a physically shared environment short-circuits).  The hash covers
   the queries only; entries for the same queries under different schemas
   share a bucket and are told apart by [equal].  The table is capped;
   overflowing clears it (validation workloads re-ask the same few checks,
   so a simple policy suffices).

   The table is shared across the discharge engine's worker domains, so every
   access goes through [memo_mutex]; the critical sections are tiny (a probe
   or an insert) compared to the NP-hard proving work they bracket, so the
   jobs=1 path pays only an uncontended lock. *)

module Memo = Hashtbl.Make (struct
  type t = Query.Env.t * Query.Algebra.t * Query.Algebra.t

  let same_env (a : Query.Env.t) (b : Query.Env.t) =
    a == b
    || (Edm.Schema.equal a.Query.Env.client b.Query.Env.client
       && Relational.Schema.equal a.Query.Env.store b.Query.Env.store)

  let equal (e1, a1, b1) (e2, a2, b2) =
    Query.Algebra.equal a1 a2 && Query.Algebra.equal b1 b2 && same_env e1 e2

  let hash (_, q1, q2) = Hashtbl.hash (q1, q2)
end)

let caching = Atomic.make false
let set_caching b = Atomic.set caching b

let memo : bool Memo.t = Memo.create 256
let memo_cap = 8192
let memo_mutex = Mutex.create ()

let memo_find key =
  Mutex.protect memo_mutex (fun () -> Memo.find_opt memo key)

let memo_add key verdict =
  Mutex.protect memo_mutex (fun () ->
      if Memo.length memo >= memo_cap then Memo.reset memo;
      Memo.replace memo key verdict)

let clear_cache () = Mutex.protect memo_mutex (fun () -> Memo.reset memo)

let subset env q1 q2 =
  (* Collapse stacked projections first: validation feeds [π_cols(view)]
     shapes whose outer-join structure only reduces once the projections are
     fused. *)
  let q1 = Query.Simplify.query env q1 and q2 = Query.Simplify.query env q2 in
  let key = (env, q1, q2) in
  match if Atomic.get caching then memo_find key else None with
  | Some verdict ->
      Obs.Metric.incr cache_hits;
      Ok verdict
  | None ->
  let* n1 = Nf.normalize env Nf.Subset_side q1 in
  let* n2 = Nf.normalize env Nf.Superset_side q2 in
  Obs.Metric.incr checks;
  if n1.Nf.approximate || n2.Nf.approximate then Obs.Metric.incr approximate_checks;
  let cq1s = List.map (chase_assoc env) n1.Nf.cqs in
  let cq1s = List.concat_map Nf.type_cases (List.map canonicalize cq1s) in
  let cq1s = List.filter (fun (cq : Nf.cq) -> Nf.consistent cq.Nf.cons) cq1s in
  let cq2s = List.map canonicalize n2.Nf.cqs in
  let verdict = List.for_all (fun cq1 -> List.exists (fun cq2 -> homomorphism cq2 cq1) cq2s) cq1s in
  if Atomic.get caching then memo_add key verdict;
  Ok verdict

let equivalent env q1 q2 =
  let* a = subset env q1 q2 in
  if not a then Ok false else subset env q2 q1

