let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

(* Translate the type atoms of a client-side condition into provenance tests
   over the unfolded view's output row. *)
let translate_cond env ctor c =
  let client = env.Env.client in
  let exception Untranslatable of string in
  let guard satisfies =
    match Ctor.guard_for ctor ~satisfies with
    | Some g -> g
    | None -> raise (Untranslatable "constructor branch condition is not negatable")
  in
  try
    Ok
      (Cond.map_atoms
         (function
           | Cond.Is_of e -> guard (fun ty -> Edm.Schema.is_subtype client ~sub:ty ~sup:e)
           | Cond.Is_of_only e -> guard (fun ty -> ty = e)
           | (Cond.True | Cond.False | Cond.Is_null _ | Cond.Is_not_null _ | Cond.Cmp _
             | Cond.And _ | Cond.Or _) as atom ->
               atom)
         c)
  with Untranslatable msg -> Error msg

let rec go env qv q =
  match q with
  | Algebra.Scan (Entity_set s) -> (
      match Edm.Schema.set_root env.Env.client s with
      | None -> fail "unknown entity set %s" s
      | Some root -> (
          match View.entity_view qv root with
          | None -> fail "no query view for hierarchy root %s of set %s" root s
          | Some v -> Ok (v.View.query, Some v.View.ctor)))
  | Algebra.Scan (Assoc_set a) -> (
      match View.assoc_view qv a with
      | None -> fail "no query view for association set %s" a
      | Some q -> Ok (q, None))
  | Algebra.Scan (Table t) -> fail "client query scans store table %s" t
  | Algebra.Select (c, q1) ->
      let* q1', ctor = go env qv q1 in
      let* c' =
        if Cond.type_atoms c = [] then Ok c
        else
          match ctor with
          | Some ctor -> translate_cond env ctor c
          | None -> fail "type test %s above a type-erasing operator" (Cond.show c)
      in
      Ok (Algebra.Select (c', q1'), ctor)
  | Algebra.Project (items, q1) ->
      let* q1', _ = go env qv q1 in
      Ok (Algebra.Project (items, q1'), None)
  | Algebra.Join (kind, l, r, on) ->
      let* l', _ = go env qv l in
      let* r', _ = go env qv r in
      Ok (Algebra.Join (kind, l', r', on), None)
  | Algebra.Union_all (l, r) ->
      let* l', _ = go env qv l in
      let* r', _ = go env qv r in
      Ok (Algebra.Union_all (l', r'), None)

let splice env qv q = Result.map fst (go env qv q)
let client_query env qv q = Result.map (Simplify.query env) (splice env qv q)
