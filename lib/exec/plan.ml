let absent = max_int

type operand = Lit of Datum.Value.t | Param of int

let operand args = function Lit v -> v | Param i -> args.(i)

type access =
  | Full_scan
  | Index_eq of { col : string; slot : int; value : operand }

type pred =
  | Always
  | Never
  | Type_in of int * string list
  | Null of int
  | Not_null of int
  | Cmp of int * Query.Cond.cmp * operand
  | Both of pred * pred
  | Either of pred * pred

type item = Slot of int | Const of Datum.Value.t | Coalesce of item array

type node =
  | Scan of {
      source : Query.Algebra.source;
      access : access;
      filter : Query.Cond.t;
      pred : pred;
      proj : Query.Algebra.proj_item list option;
      map : item array option;
      layout : string array;
    }
  | Filter of { cond : Query.Cond.t; pred : pred; input : node }
  | Project of {
      items : Query.Algebra.proj_item list;
      slots : item array;
      fused : item array;
      layout : string array;
      input : node;
    }
  | Hash_join of join
  | Append of { left : node; right : node; perm : int array option }

and join = {
  spec : Query.Join.t;
  left : node;
  right : node;
  lkey : int array;
  rkey : int array;
  keep : int array;
  layout : string array;
}

type t = { root : node; template : Datum.Row.t; order : int array; args : Datum.Value.t array }

let source_name = function
  | Query.Algebra.Entity_set s -> s
  | Query.Algebra.Assoc_set a -> a
  | Query.Algebra.Table t -> t

let kind_name = function
  | Query.Join.Inner -> "inner"
  | Query.Join.Left -> "left outer"
  | Query.Join.Full -> "full outer"

let item_string = function
  | Query.Algebra.Col { src; dst } ->
      if String.equal src dst then src else Printf.sprintf "%s AS %s" src dst
  | Query.Algebra.Const { value; dst } ->
      Printf.sprintf "%s AS %s" (Datum.Value.to_literal value) dst
  | Query.Algebra.Coalesce { srcs; dst } ->
      Printf.sprintf "COALESCE(%s) AS %s" (String.concat "," srcs) dst

let items_string items = String.concat ", " (List.map item_string items)

(* [cond] with each comparison's value the one its predicate [pred], which
   was compiled from [cond] atom by atom, reads from [args]. *)
let rec bound args cond pred =
  match (cond, pred) with
  | Query.Cond.Cmp (a, op, _), Cmp (_, _, v) -> Query.Cond.Cmp (a, op, operand args v)
  | Query.Cond.And (x, y), Both (p, q) -> Query.Cond.And (bound args x p, bound args y q)
  | Query.Cond.Or (x, y), Either (p, q) -> Query.Cond.Or (bound args x p, bound args y q)
  | c, _ -> c

let show t =
  let b = Buffer.create 256 in
  let line indent s =
    Buffer.add_string b (String.make indent ' ');
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  let rec go indent = function
    | Scan { source; access; filter; pred; proj; _ } ->
        let acc =
          match access with
          | Full_scan -> ""
          | Index_eq { col; value; _ } ->
              Printf.sprintf " [index %s = %s]" col (Datum.Value.to_literal (operand t.args value))
        in
        let flt =
          match filter with
          | Query.Cond.True -> ""
          | c -> " where " ^ Query.Cond.show (bound t.args c pred)
        in
        let prj =
          match proj with None -> "" | Some items -> " project {" ^ items_string items ^ "}"
        in
        line indent (Printf.sprintf "scan %s%s%s%s" (source_name source) acc flt prj)
    | Filter { cond; pred; input } ->
        line indent ("filter " ^ Query.Cond.show (bound t.args cond pred));
        go (indent + 2) input
    | Project { items; input; _ } ->
        line indent ("project {" ^ items_string items ^ "}");
        go (indent + 2) input
    | Hash_join j ->
        line indent
          (Printf.sprintf "hash join (%s) on {%s}" (kind_name j.spec.kind)
             (String.concat "," j.spec.on));
        go (indent + 2) j.left;
        go (indent + 2) j.right
    | Append { left; right; _ } ->
        line indent "union all";
        go (indent + 2) left;
        go (indent + 2) right
  in
  go 0 t.root;
  Buffer.contents b

let rec count_scans p = function
  | Scan { access; _ } -> if p access then 1 else 0
  | Filter { input; _ } | Project { input; _ } -> count_scans p input
  | Hash_join { left; right; _ } | Append { left; right; _ } -> count_scans p left + count_scans p right

let scans t = count_scans (fun _ -> true) t.root
let index_scans t = count_scans (function Index_eq _ -> true | Full_scan -> false) t.root
