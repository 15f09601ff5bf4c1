(* [Query.Simplify.query] as a tree walk: every occurrence of a shared
   subterm is rewritten again, and every identity-projection test types its
   input with a full list-copying [Infer_tree.infer].  Tests hold the
   memoized rewrite against it node for node. *)

module Algebra = Query.Algebra
module Cond = Query.Cond

let cond = Query.Simplify.cond

let compose_projections outer inner =
  let resolve src = List.find_opt (fun item -> Algebra.dst_of item = src) inner in
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

let is_identity_projection env items q =
  match Infer_tree.infer env q with
  | Error _ -> false
  | Ok cols ->
      List.length items = List.length cols
      && List.for_all2
           (fun item c ->
             match item with
             | Algebra.Col { src; dst } -> src = c && dst = c
             | Algebra.Const _ | Algebra.Coalesce _ -> false)
           items cols

let rec query env q =
  match q with
  | Algebra.Scan _ -> q
  | Algebra.Select (c, q1) -> (
      let q1 = query env q1 in
      match cond c with
      | Cond.True -> q1
      | c -> (
          match q1 with
          | Algebra.Select (c2, q2) -> Algebra.Select (cond (Cond.And (c, c2)), q2)
          | _ -> Algebra.Select (c, q1)))
  | Algebra.Project (items, q1) -> (
      let q1 = query env q1 in
      match q1 with
      | Algebra.Project (inner, q2) -> (
          match compose_projections items inner with
          | Some merged -> query env (Algebra.Project (merged, q2))
          | None -> Algebra.Project (items, q1))
      | _ -> if is_identity_projection env items q1 then q1 else Algebra.Project (items, q1))
  | Algebra.Join (Query.Join.Inner, l, r, on) ->
      Algebra.Join (Query.Join.Inner, query env l, query env r, on)
  | Algebra.Join (Query.Join.Left, l, r, on) ->
      Algebra.Join (Query.Join.Left, query env l, query env r, on)
  | Algebra.Join (Query.Join.Full, l, r, on) ->
      Algebra.Join (Query.Join.Full, query env l, query env r, on)
  | Algebra.Union_all (l, r) -> Algebra.Union_all (query env l, query env r)
