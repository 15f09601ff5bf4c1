type source = Entity_set of string | Assoc_set of string | Table of string
[@@deriving eq, ord, show { with_path = false }]

type proj_item =
  | Col of { src : string; dst : string }
  | Const of { value : Datum.Value.t; dst : string }
  | Coalesce of { srcs : string list; dst : string }
[@@deriving eq]

type t =
  | Scan of source
  | Select of Cond.t * t
  | Project of proj_item list * t
  | Join of Join.kind * t * t * string list
  | Union_all of t * t
[@@deriving eq]

let col a = Col { src = a; dst = a }
let col_as src dst = Col { src; dst }
let const value dst = Const { value; dst }
let tag t = Const { value = Datum.Value.Bool true; dst = t }
let null_as dst = Const { value = Datum.Value.Null; dst }
let coalesce srcs dst = Coalesce { srcs; dst }
let project_cols cols q = Project (List.map col cols, q)
let project_renamed pairs q = Project (List.map (fun (src, dst) -> col_as src dst) pairs, q)
let dst_of = function Col { dst; _ } -> dst | Const { dst; _ } -> dst | Coalesce { dst; _ } -> dst

let fail fmt = Format.kasprintf (fun s -> Error s) fmt

(* The reversed names of a table's columns (no closure, unlike
   [List.rev_map]). *)
let rec rev_names acc = function
  | [] -> acc
  | (c : Relational.Table.column) :: rest -> rev_names (c.cname :: acc) rest

(* A scan's columns in producer order or, with [rev], reversed: each is
   built in one pass. *)
let scan_columns ~rev env = function
  | Entity_set s -> (
      match Edm.Schema.set_root env.Env.client s with
      | Some _ -> Ok ((if rev then Env.rev_entity_set_columns else Env.entity_set_columns) env s)
      | None -> fail "unknown entity set %s" s)
  | Assoc_set a -> (
      match Edm.Schema.find_association env.Env.client a with
      | Some assoc ->
          let cols = Edm.Schema.association_columns env.Env.client assoc in
          Ok (if rev then List.rev cols else cols)
      | None -> fail "unknown association set %s" a)
  | Table t -> (
      match Relational.Schema.find_table env.Env.store t with
      | Some tbl when rev -> Ok (rev_names [] tbl.Relational.Table.columns)
      | Some tbl -> Ok (Relational.Table.column_names tbl)
      | None -> fail "unknown table %s" t)

let source_columns = scan_columns ~rev:false

(* Column membership by [String.equal], not [List.mem]'s polymorphic
   compare: in [infer_step]'s reversed lists the columns a scan yields
   first ([$type], a chain's join key) sit at the far end. *)
let rec mem c = function [] -> false | x :: rest -> String.equal c x || mem c rest

(* The atoms are tested in place; the lists of [Cond.columns] are built
   only to name the first absent column. *)
let check_cond cols c =
  let absent = function
    | Cond.Is_null a | Cond.Is_not_null a | Cond.Cmp (a, _, _) -> not (mem a cols)
    | _ -> false
  in
  let type_atom = function Cond.Is_of _ | Cond.Is_of_only _ -> true | _ -> false in
  if Cond.exists_atom absent c then
    fail "condition %s references absent column %s" (Cond.show c)
      (List.find (fun a -> not (mem a cols)) (Cond.columns c))
  else if Cond.exists_atom type_atom c && not (mem Env.type_column cols) then
    fail "type test in %s over rows without a dynamic type" (Cond.show c)
  else Ok ()

module Memo = Phys_memo.Make (struct
  type nonrec t = t

  let iter_children f = function
    | Scan _ -> ()
    | Select (_, q) | Project (_, q) -> f q
    | Join (_, l, r, _) | Union_all (l, r) ->
        f l;
        f r
end)

(* [infer_step] works on column lists in reverse producer order, the
   shared form: a join's list is its right side's non-join columns, reversed,
   in front of its left side's list, which it shares.  So typing a left-deep
   join chain allocates each right side's columns once, where producer order
   ([lc @ rest]) would copy the left list at every join.  Its helpers read
   the lists in place: a node that types allocates its own columns and
   nothing else. *)
let item_absent cols = function
  | Col { src; _ } -> not (mem src cols)
  | Coalesce { srcs; _ } -> srcs = [] || List.exists (fun s -> not (mem s cols)) srcs
  | Const _ -> false

let rec first_absent cols = function
  | [] -> None
  | item :: rest -> if item_absent cols item then Some item else first_absent cols rest

(* The smallest column two items bind, if any: what the first adjacent pair
   of the sorted names would give, found without sorting. *)
let duplicate_dst items =
  let rec binds d = function
    | [] -> false
    | item :: rest -> String.equal d (dst_of item) || binds d rest
  in
  let rec scan best = function
    | [] -> best
    | item :: rest ->
        let d = dst_of item in
        let smaller = match best with Some b -> String.compare d b < 0 | None -> true in
        scan (if smaller && binds d rest then Some d else best) rest
  in
  scan None items

(* The first join column one side lacks, and the last column of the
   reversed right list (the first in producer order) other than a join
   column that the left side also has. *)
let rec first_unshared lc rc = function
  | [] -> None
  | c :: rest -> if mem c lc && mem c rc then first_unshared lc rc rest else Some c

let rec last_clash lc on found = function
  | [] -> found
  | c :: rest ->
      last_clash lc on (if mem c lc && not (mem c on) then Some c else found) rest

(* [rc] without the join columns, in front of [lc]. *)
let rec prepend_without on rc lc =
  match rc with
  | [] -> lc
  | c :: rest ->
      if mem c on then prepend_without on rest lc else c :: prepend_without on rest lc

let rec rev_dsts acc = function [] -> acc | item :: rest -> rev_dsts (dst_of item :: acc) rest

(* A projection's columns, its items' [dst]s (reversed with [rev]), once
   its input's columns [cols] (in either order) have every source. *)
let project_rule ~rev items cols =
  match first_absent cols items with
  | Some (Col { src; _ }) -> fail "projection of absent column %s" src
  | Some (Coalesce { srcs; dst }) ->
      fail "coalesce into %s over absent or empty sources {%s}" dst (String.concat "," srcs)
  | Some (Const _) | None -> (
      match duplicate_dst items with
      | Some d -> fail "duplicate projected column %s" d
      | None -> Ok (if rev then rev_dsts [] items else List.map dst_of items))

(* A union's columns, its left side's, once both sides' lists (in one
   order) agree as sets; [producer] puts a list in producer order. *)
let union_rule producer lc rc =
  if lc == rc || lc = rc || List.sort String.compare lc = List.sort String.compare rc then Ok lc
  else
    fail "union sides disagree: {%s} vs {%s}"
      (String.concat "," (producer lc))
      (String.concat "," (producer rc))

(* The typing rule of one node; [infer env] reaches the children. *)
let infer_step infer env = function
  | Scan src -> scan_columns ~rev:true env src
  | Select (c, q) -> (
      match infer env q with
      | Error _ as e -> e
      | Ok cols -> ( match check_cond cols c with Ok () -> Ok cols | Error e -> Error e))
  | Project (items, q) -> (
      match infer env q with Error _ as e -> e | Ok cols -> project_rule ~rev:true items cols)
  | Join (_, l, r, on) -> (
      match infer env l with
      | Error _ as e -> e
      | Ok lc -> (
          match infer env r with
          | Error _ as e -> e
          | Ok rc -> (
              match first_unshared lc rc on with
              | Some c -> fail "join column %s missing on one side" c
              | None -> (
                  match last_clash lc on None rc with
                  | Some c -> fail "non-join column %s appears on both join sides" c
                  | None -> Ok (prepend_without on rc lc)))))
  | Union_all (l, r) -> (
      match infer env l with
      | Error _ as e -> e
      | Ok lc -> (
          match infer env r with Error _ as e -> e | Ok rc -> union_rule List.rev lc rc))

let rec infer_rev env q = infer_step infer_rev env q

(* Most tables type a few subterms, or none: the table is made on the
   first call, small.  Every scan of one source shares one column list,
   however many physically distinct scans of it the views hold. *)
let typing ?keep env =
  let infer =
    lazy
      (let scans = Hashtbl.create 16 in
       Memo.fix ?keep (Memo.create ~size:16 ()) (fun infer -> function
         | Scan src -> (
             match Hashtbl.find_opt scans src with
             | Some cols -> cols
             | None ->
                 let cols = scan_columns ~rev:true env src in
                 Hashtbl.add scans src cols;
                 cols)
         | q -> infer_step (fun _ -> infer) env q))
  in
  fun q -> Lazy.force infer q

(* [infer_step]'s rules in producer order down to the first projection or
   join, whose input is typed in the shared form: a join's list is reversed
   once, at the root, and no other node's list is copied. *)
let rec infer env = function
  | Scan src -> source_columns env src
  | Select (c, q) -> (
      match infer env q with
      | Error _ as e -> e
      | Ok cols -> ( match check_cond cols c with Ok () -> Ok cols | Error e -> Error e))
  | Project (items, q) -> (
      match infer_rev env q with Error _ as e -> e | Ok cols -> project_rule ~rev:false items cols)
  | Join _ as q -> Result.map List.rev (infer_rev env q)
  | Union_all (l, r) -> (
      match infer env l with
      | Error _ as e -> e
      | Ok lc -> ( match infer env r with Error _ as e -> e | Ok rc -> union_rule Fun.id lc rc))

let sharing qs =
  let tbl = Memo.create () in
  let size =
    Memo.fix tbl (fun size -> function
      | Scan _ -> 1
      | Select (_, q) | Project (_, q) -> 1 + size q
      | Join (_, l, r, _) | Union_all (l, r) ->
          1 + size l + size r)
  in
  let tree = List.fold_left (fun n q -> n + size q) 0 qs in
  (tree, Memo.size tbl)

let columns env q =
  match infer env q with
  | Ok cols -> cols
  | Error e -> invalid_arg ("Query.Algebra.columns: " ^ e)

let align_union env l r =
  let lc = columns env l and rc = columns env r in
  let all = List.sort_uniq String.compare (lc @ rc) in
  let pad cols q = Project (List.map (fun c -> if List.mem c cols then col c else null_as c) all, q) in
  Union_all (pad lc l, pad rc r)

let rec sources_acc acc = function
  | Scan s -> if List.exists (equal_source s) acc then acc else s :: acc
  | Select (_, q) | Project (_, q) -> sources_acc acc q
  | Join (_, l, r, _) | Union_all (l, r) ->
      sources_acc (sources_acc acc l) r

let sources q = List.rev (sources_acc [] q)

(* Rebuilds only the nodes under a condition [f] changes: when [f] returns
   every condition physically unchanged, so is the query. *)
let rec map_conditions f q =
  let binary mk l r =
    let l' = map_conditions f l and r' = map_conditions f r in
    if l' == l && r' == r then q else mk l' r'
  in
  match q with
  | Scan _ -> q
  | Select (c, sub) ->
      let c' = f c and sub' = map_conditions f sub in
      if c' == c && sub' == sub then q else Select (c', sub')
  | Project (items, sub) ->
      let sub' = map_conditions f sub in
      if sub' == sub then q else Project (items, sub')
  | Join (kind, l, r, on) -> binary (fun l r -> Join (kind, l, r, on)) l r
  | Union_all (l, r) -> binary (fun l r -> Union_all (l, r)) l r

let pp_item fmt = function
  | Col { src; dst } when src = dst -> Format.pp_print_string fmt src
  | Col { src; dst } -> Format.fprintf fmt "%s AS %s" src dst
  | Const { value; dst } -> Format.fprintf fmt "%s AS %s" (Datum.Value.to_literal value) dst
  | Coalesce { srcs; dst } -> Format.fprintf fmt "COALESCE(%s) AS %s" (String.concat "," srcs) dst

let rec pp fmt = function
  | Scan (Entity_set s) -> Format.fprintf fmt "%s" s
  | Scan (Assoc_set a) -> Format.fprintf fmt "%s" a
  | Scan (Table t) -> Format.fprintf fmt "%s" t
  | Select (c, q) -> Format.fprintf fmt "@[σ[%a]@,(%a)@]" Cond.pp c pp q
  | Project (items, q) ->
      Format.fprintf fmt "@[π[%a]@,(%a)@]"
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") pp_item)
        items pp q
  | Join (kind, l, r, on) ->
      let op = match kind with Join.Inner -> "⋈" | Join.Left -> "⟕" | Join.Full -> "⟗" in
      Format.fprintf fmt "@[(%a@ %s{%s}@ %a)@]" pp l op (String.concat "," on) pp r
  | Union_all (l, r) -> Format.fprintf fmt "@[(%a@ ∪@ %a)@]" pp l pp r

