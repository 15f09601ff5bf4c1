let ( let* ) = Result.bind

let checks = Obs.Metric.counter "containment.checks"
let cq_pairs = Obs.Metric.counter "containment.cq_pairs"
let hom_steps = Obs.Metric.counter "containment.hom_steps"
let approximate_checks = Obs.Metric.counter "containment.approximate_checks"
let cases = Obs.Metric.counter "containment.cases"

module Int_map = Map.Make (Int)

(* Try to extend [subst] so that term [t2] of the candidate (superset) CQ
   maps onto term [t1] of the target (subset) CQ.  Both CQs are canonical:
   no variable is forced equal to a constant, so a constant maps onto
   itself only. *)
let unify_term subst t2 t1 =
  match t2, t1 with
  | Nf.C v2, Nf.C v1 -> if Datum.Value.equal v1 v2 then Some subst else None
  | Nf.C _, Nf.V _ -> None
  | Nf.V x, _ -> (
      match Int_map.find_opt x subst with
      | Some t -> if Nf.equal_term t t1 then Some subst else None
      | None -> Some (Int_map.add x t1 subst))

(* [cols1] and [cols2] are the two heads' columns, ascending. *)
let homomorphism types ((cq2 : Nf.cq), cols2) ((cq1 : Nf.cq), cols1) =
  Obs.Metric.incr cq_pairs;
  (* Seed the substitution from the heads: output columns must align. *)
  let seed =
    if not (List.equal String.equal cols1 cols2) then None
    else
      List.fold_left
        (fun acc (col, t2) ->
          match acc with
          | None -> None
          | Some subst -> (
              match List.assoc_opt col cq1.Nf.head with
              | None -> None
              | Some t1 -> unify_term subst t2 t1))
        (Some Int_map.empty) cq2.Nf.head
  in
  match seed with
  | None -> false
  | Some seed ->
      let same_cols (a2 : Nf.atom) (a1 : Nf.atom) =
        Query.Algebra.equal_source a2.Nf.src a1.Nf.src
      in
      let rec assign subst = function
        | [] -> Nf.entails_store types cq1.Nf.store (fun x -> Int_map.find_opt x subst) cq2.Nf.store
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
                            | Some t1 -> unify_term subst t2 t1))
                      (Some subst) a2.Nf.args
                  in
                  match subst' with None -> false | Some subst' -> assign subst' rest)
              cq1.Nf.body
      in
      assign seed cq2.Nf.body

(* A CQ's head columns, ascending: heads must cover the same columns. *)
let head_cols (cq : Nf.cq) = List.sort String.compare (List.map fst cq.Nf.head)

(* Chase the client schema's referential axioms into a subset-side CQ:
   every association tuple's endpoints are keys of existing entities of the
   endpoint types (guaranteed by [Edm.Instance.conforms]).  Materializing
   the implied entity atoms lets the homomorphism find them — e.g. check 3
   of AddAssocFK maps an entity-set atom onto the endpoint of an
   association atom.  An implied atom binds the key, [$type] and the
   columns [widen] gives for its entity set ([None]: every column); a key
   column the association atom does not bind gets a fresh variable, and
   the implied keys are non-null.  Every variable of a CQ is bound by an
   atom of its body. *)
let chase_assoc types env ~widen (cq : Nf.cq) =
  let client = env.Query.Env.client in
  let max_var =
    let of_term acc = function Nf.V v -> max acc v | Nf.C _ -> acc in
    List.fold_left
      (fun acc (a : Nf.atom) -> List.fold_left (fun acc (_, t) -> of_term acc t) acc a.Nf.args)
      0 cq.Nf.body
  in
  let counter = ref max_var in
  let fresh () = incr counter; !counter in
  let endpoint_atoms args etype =
    match Edm.Schema.set_of_type client etype with
    | None -> ([], [])
    | Some set ->
        let src = Query.Algebra.Entity_set set in
        let key = Edm.Schema.key_of client etype in
        let cols =
          match widen with
          | None -> Query.Env.entity_set_columns env set
          | Some widen ->
              Query.Env.type_column :: key
              @ List.filter
                  (fun c -> c <> Query.Env.type_column && not (List.mem c key))
                  (widen src)
        in
        let tyvar = fresh () in
        let bind =
          List.map
            (fun c ->
              if c = Query.Env.type_column then (c, Nf.V tyvar)
              else
                match
                  if List.mem c key then List.assoc_opt (Edm.Association.qualify ~etype c) args
                  else None
                with
                | Some t -> (c, t)
                | None -> (c, Nf.V (fresh ())))
            cols
        in
        let non_null_key = function
          | c, Nf.V v when List.mem c key -> Some (Nf.Not_null_c v)
          | _, (Nf.V _ | Nf.C _) -> None
        in
        ( [ { Nf.src; args = bind } ],
          Nf.Ty_in (tyvar, Nf.Types.subtypes types etype) :: List.filter_map non_null_key bind )
  in
  let extra_atoms, extra_cons =
    List.fold_left
      (fun (atoms, cons) (a : Nf.atom) ->
        match a.Nf.src with
        | Query.Algebra.Assoc_set name -> (
            match Edm.Schema.find_association client name with
            | None -> (atoms, cons)
            | Some assoc ->
                let a1, c1 = endpoint_atoms a.Nf.args assoc.Edm.Association.end1 in
                let a2, c2 = endpoint_atoms a.Nf.args assoc.Edm.Association.end2 in
                (atoms @ a1 @ a2, cons @ c1 @ c2))
        | Query.Algebra.Entity_set _ | Query.Algebra.Table _ -> (atoms, cons))
      ([], []) cq.Nf.body
  in
  { Nf.head = cq.Nf.head; body = cq.Nf.body @ extra_atoms;
    store = List.fold_left Nf.add cq.Nf.store extra_cons }

(* Validation feeds [π_cols(view)] shapes whose outer-join structure only
   reduces once stacked projections are fused, so both sides are
   simplified ([Query.Simplify.query]) before they are normalized. *)
let superset ~infer types env q = Nf.normalize ~infer types env Nf.Superset_side q

(* [superset] as the test seam's full-width oracle normalizes it. *)
let full_width_superset types env q = Nf.For_tests.normalize_full_width types env Nf.Superset_side q

(* [q1] is simplified and [n2] is the simplified superset side normalized.
   The superset side is normalized first; each subset-side scan and
   implied atom is then widened to every column a superset CQ binds on its
   source, so no superset atom looks up a column the subset atom lacks. *)
let subset_with ~infer ~split ~full_width types env q1 n2 =
  let* n1, n2, widen =
    Obs.Span.with_ ~name:"containment.normalize" @@ fun () ->
    let* n2 = Lazy.force n2 in
    let* n1, widen =
      if full_width then
        let* n1 = Nf.For_tests.normalize_full_width types env Nf.Subset_side q1 in
        Ok (n1, None)
      else
        let widen = Nf.bound_columns n2.Nf.cqs in
        let* n1 = Nf.normalize ~widen ~infer types env Nf.Subset_side q1 in
        Ok (n1, Some widen)
    in
    Obs.Span.tag "lhs_cqs" (List.length n1.Nf.cqs);
    Obs.Span.tag "rhs_cqs" (List.length n2.Nf.cqs);
    if Obs.enabled () then begin
      Obs.Span.tag "lhs_args" (Nf.atom_args n1.Nf.cqs);
      Obs.Span.tag "rhs_args" (Nf.atom_args n2.Nf.cqs)
    end;
    Ok (n1, n2, widen)
  in
  Obs.Metric.incr checks;
  if n1.Nf.approximate || n2.Nf.approximate then Obs.Metric.incr approximate_checks;
  let cq2s = n2.Nf.cqs in
  let cq1s =
    Obs.Span.with_ ~name:"containment.cases" @@ fun () ->
    let split = split types ~against:cq2s in
    let cq1s =
      List.concat_map
        (fun cq ->
          let cq = chase_assoc types env ~widen cq in
          let cols = head_cols cq in
          List.filter_map
            (fun (case : Nf.cq) -> if Nf.consistent case.Nf.store then Some (case, cols) else None)
            (split cq))
        n1.Nf.cqs
    in
    let n = List.length cq1s in
    Obs.Metric.incr ~by:n cases;
    Obs.Span.tag "cases" n;
    cq1s
  in
  Obs.Span.with_ ~name:"containment.hom" @@ fun () ->
  Obs.Span.tag "cases" (List.length cq1s);
  Obs.Span.tag "rhs_cqs" (List.length cq2s);
  let cq2s = List.map (fun cq -> (cq, head_cols cq)) cq2s in
  Ok (List.for_all (fun cq1 -> List.exists (fun cq2 -> homomorphism types cq2 cq1) cq2s) cq1s)

let prove ~infer types env q1 n2 =
  subset_with ~infer ~split:Nf.type_cases ~full_width:false types env q1 n2

(* [subset] over a numbering and a typing of its own. *)
let subset_in ~split ~full_width env q1 q2 =
  let types = Nf.Types.create env.Query.Env.client and infer = Query.Algebra.typing env in
  let superset = if full_width then full_width_superset else superset ~infer in
  subset_with ~infer ~split ~full_width types env (Query.Simplify.query env q1)
    (lazy (superset types env (Query.Simplify.query env q2)))

let subset env q1 q2 = subset_in ~split:Nf.type_cases ~full_width:false env q1 q2

module For_tests = struct
  let subset ?split ?(full_width = false) env q1 q2 =
    let split = match split with Some split -> fun _ -> split | None -> Nf.type_cases in
    subset_in ~split ~full_width env q1 q2
end
