(* [Query.Algebra.infer] by its list-copying rule: every node's columns in
   producer order, a join's built as [lc @ rest], so typing a left-deep
   join chain copies the left list at every join.  Tests hold the shared,
   reversed-list typing against it, columns and error text alike, on every
   subterm they meet.  [step] is the rule of one node, reaching the
   children through its first argument: [infer] ties it by plain
   recursion, a test over many shared subterms through a memo table. *)

module Algebra = Query.Algebra
module Cond = Query.Cond

let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let check_cond cols c =
  let absent = function
    | Cond.Is_null a | Cond.Is_not_null a | Cond.Cmp (a, _, _) -> not (List.mem a cols)
    | _ -> false
  in
  let type_atom = function Cond.Is_of _ | Cond.Is_of_only _ -> true | _ -> false in
  if Cond.exists_atom absent c then
    fail "condition %s references absent column %s" (Cond.show c)
      (List.find (fun a -> not (List.mem a cols)) (Cond.columns c))
  else if Cond.exists_atom type_atom c && not (List.mem Query.Env.type_column cols) then
    fail "type test in %s over rows without a dynamic type" (Cond.show c)
  else Ok ()

let item_absent cols = function
  | Algebra.Col { src; _ } -> not (List.mem src cols)
  | Algebra.Coalesce { srcs; _ } -> srcs = [] || List.exists (fun s -> not (List.mem s cols)) srcs
  | Algebra.Const _ -> false

(* The smallest column two items bind: the first adjacent pair of the
   sorted names. *)
let duplicate_dst items =
  let rec first_dup = function
    | a :: (b :: _ as rest) -> if String.equal a b then Some a else first_dup rest
    | _ -> None
  in
  first_dup (List.sort String.compare (List.map Algebra.dst_of items))

let step infer env q =
  match q with
  | Algebra.Scan src -> Algebra.source_columns env src
  | Algebra.Select (c, q) -> (
      match infer env q with
      | Error _ as e -> e
      | Ok cols -> ( match check_cond cols c with Ok () -> Ok cols | Error e -> Error e))
  | Algebra.Project (items, q) -> (
      match infer env q with
      | Error _ as e -> e
      | Ok cols -> (
          match List.find_opt (item_absent cols) items with
          | Some (Algebra.Col { src; _ }) -> fail "projection of absent column %s" src
          | Some (Algebra.Coalesce { srcs; dst }) ->
              fail "coalesce into %s over absent or empty sources {%s}" dst (String.concat "," srcs)
          | Some (Algebra.Const _) | None -> (
              match duplicate_dst items with
              | Some d -> fail "duplicate projected column %s" d
              | None -> Ok (List.map Algebra.dst_of items))))
  | Algebra.Join (_, l, r, on) -> (
      match infer env l with
      | Error _ as e -> e
      | Ok lc -> (
          match infer env r with
          | Error _ as e -> e
          | Ok rc -> (
              match List.find_opt (fun c -> not (List.mem c lc && List.mem c rc)) on with
              | Some c -> fail "join column %s missing on one side" c
              | None -> (
                  match List.find_opt (fun c -> List.mem c lc && not (List.mem c on)) rc with
                  | Some c -> fail "non-join column %s appears on both join sides" c
                  | None -> Ok (lc @ List.filter (fun c -> not (List.mem c on)) rc)))))
  | Algebra.Union_all (l, r) -> (
      match infer env l with
      | Error _ as e -> e
      | Ok lc -> (
          match infer env r with
          | Error _ as e -> e
          | Ok rc ->
              if List.sort String.compare lc = List.sort String.compare rc then Ok lc
              else
                fail "union sides disagree: {%s} vs {%s}" (String.concat "," lc)
                  (String.concat "," rc)))

let rec infer env q = step infer env q
