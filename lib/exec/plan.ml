type access =
  | Full_scan
  | Index_eq of { col : string; value : Datum.Value.t }

type node =
  | Scan of {
      source : Query.Algebra.source;
      access : access;
      filter : Query.Cond.t;
      proj : Query.Algebra.proj_item list option;
    }
  | Filter of Query.Cond.t * node
  | Project of Query.Algebra.proj_item list * node
  | Hash_join of join
  | Append of node * node

and join = { spec : Query.Join.t; left : node; right : node }

type t = node

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

let show t =
  let b = Buffer.create 256 in
  let line indent s =
    Buffer.add_string b (String.make indent ' ');
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  let rec go indent = function
    | Scan { source; access; filter; proj } ->
        let acc =
          match access with
          | Full_scan -> ""
          | Index_eq { col; value } ->
              Printf.sprintf " [index %s = %s]" col (Datum.Value.to_literal value)
        in
        let flt =
          match filter with
          | Query.Cond.True -> ""
          | c -> " where " ^ Query.Cond.show c
        in
        let prj =
          match proj with None -> "" | Some items -> " project {" ^ items_string items ^ "}"
        in
        line indent (Printf.sprintf "scan %s%s%s%s" (source_name source) acc flt prj)
    | Filter (c, n) ->
        line indent ("filter " ^ Query.Cond.show c);
        go (indent + 2) n
    | Project (items, n) ->
        line indent ("project {" ^ items_string items ^ "}");
        go (indent + 2) n
    | Hash_join j ->
        line indent
          (Printf.sprintf "hash join (%s) on {%s}" (kind_name j.spec.kind)
             (String.concat "," j.spec.on));
        go (indent + 2) j.left;
        go (indent + 2) j.right
    | Append (a, b) ->
        line indent "union all";
        go (indent + 2) a;
        go (indent + 2) b
  in
  go 0 t;
  Buffer.contents b

let pp fmt t = Format.pp_print_string fmt (show t)

let rec count_scans p = function
  | Scan { access; _ } -> if p access then 1 else 0
  | Filter (_, n) | Project (_, n) -> count_scans p n
  | Hash_join j -> count_scans p j.left + count_scans p j.right
  | Append (a, b) -> count_scans p a + count_scans p b

let scans = count_scans (fun _ -> true)
let index_scans = count_scans (function Index_eq _ -> true | Full_scan -> false)
