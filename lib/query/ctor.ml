type t =
  | Entity of { etype : string; attrs : string list }
  | If of Cond.t * t * t
[@@deriving eq]

module Memo = Phys_memo.Make (struct
  type nonrec t = t

  let iter_children f = function
    | Entity _ -> ()
    | If (_, a, b) ->
        f a;
        f b
end)

let rec pp fmt = function
  | Entity { etype; attrs } -> Format.fprintf fmt "%s(%s)" etype (String.concat "," attrs)
  | If (c, a, b) -> Format.fprintf fmt "@[if (%a)@ then %a@ else %a@]" Cond.pp c pp a pp b


let rec eval_entity schema row = function
  | Entity { etype; attrs } ->
      { Edm.Instance.etype; attrs = Datum.Row.project attrs row }
  | If (c, a, b) -> if Cond.eval schema row c then eval_entity schema row a else eval_entity schema row b

(* Flatten the decision tree into (guard, leaf) pairs.  The guard of a leaf
   is the simplified conjunction of the conditions on its path, with
   else-branches contributing the SQL-faithful complement.  Each node's
   guard extends its parent's by one simplified condition, so the guards of
   a CASE chain share their prefixes and cost one node per branch. *)
let branches ctor =
  let ( let* ) = Option.bind in
  let rec go guard k acc =
    match k with
    | Entity _ -> Some ((guard, k) :: acc)
    | If (c, a, b) ->
        let* nc = Cond.negate c in
        let* acc = go (Cond.simplify_and guard (Cond.simplify nc)) b acc in
        go (Cond.simplify_and guard (Cond.simplify c)) a acc
  in
  go Cond.True ctor []

let guard_for ctor ~satisfies =
  match branches ctor with
  | None -> None
  | Some pairs ->
      let conds =
        List.filter_map
          (function guard, Entity { etype; _ } when satisfies etype -> Some guard | _ -> None)
          pairs
      in
      Some (Cond.simplify (Cond.disj conds))
