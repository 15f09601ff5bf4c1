module M = Map.Make (String)

type t = Table.t M.t

let empty = M.empty

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

(* The cross-table rules of one foreign key of [tbl]: it names the whole
   key of a table of [t], column for column, and each pair of columns has
   one domain.  These helpers take everything as arguments, so they build
   no closure: loading a state checks every foreign key. *)
let rec same_domains (tbl : Table.t) (target : Table.t) cs rcs =
  match (cs, rcs) with
  | c :: cs, rc :: rcs -> (
      match (Table.domain_of tbl c, Table.domain_of target rc) with
      | Some d, Some rd when Datum.Domain.equal d rd -> same_domains tbl target cs rcs
      | _ ->
          fail "foreign key column %s.%s disagrees on domain with %s.%s" tbl.name c target.name rc)
  | _ -> Ok ()

let check_fk t (tbl : Table.t) (fk : Table.foreign_key) =
  match M.find fk.ref_table t with
  | exception Not_found -> fail "table %s references unknown table %s" tbl.name fk.ref_table
  | (target : Table.t) ->
      if not (List.equal String.equal fk.ref_columns target.key) then
        fail "foreign key %s -> %s does not target the full key" tbl.name fk.ref_table
      else if List.compare_lengths fk.fk_columns fk.ref_columns <> 0 then
        fail "foreign key %s -> %s has mismatched arity" tbl.name fk.ref_table
      else same_domains tbl target fk.fk_columns fk.ref_columns

let rec check_fks t tbl = function
  | [] -> Ok ()
  | fk :: rest -> ( match check_fk t tbl fk with Ok () -> check_fks t tbl rest | e -> e)

let check_all_fks t =
  M.fold (fun _ (tbl : Table.t) acc -> match acc with Ok () -> check_fks t tbl tbl.fks | e -> e) t (Ok ())

(* [r] with its error paired with [i], the place of the table it refuses. *)
let placed i = function Ok () -> Ok () | Error m -> Error (i, m)

(* Every table is indexed, then checked on its own, before any foreign
   key is checked: a key may target a later table, and a table's own error
   comes before the errors of the keys into it. *)
let of_tables tables =
  let rec index i t = function
    | [] -> Ok t
    | (tbl : Table.t) :: rest ->
        if M.mem tbl.name t then Error (i, Printf.sprintf "table %s already exists" tbl.name)
        else index (i + 1) (M.add tbl.name tbl t) rest
  in
  let* t = index 0 M.empty tables in
  let* () = Datum.Results.all_oki (fun i tbl -> placed i (Table.check tbl)) tables in
  let* () = Datum.Results.all_oki (fun i (tbl : Table.t) -> placed i (check_fks t tbl tbl.fks)) tables in
  Ok t

let add_table (tbl : Table.t) t =
  if M.mem tbl.name t then fail "table %s already exists" tbl.name
  else
    let t = M.add tbl.name tbl t in
    let* () = Table.check tbl in
    let* () = check_fks t tbl tbl.fks in
    Ok t

let find_table t name = M.find_opt name t

let get_table t name =
  match find_table t name with
  | Some tbl -> tbl
  | None -> invalid_arg (Printf.sprintf "Relational.Schema: unknown table %s" name)

let tables t = List.map snd (M.bindings t)

(* Every foreign key is checked again: the new definition may change the
   key that others target. *)
let replace_table (tbl : Table.t) t =
  if not (M.mem tbl.name t) then fail "unknown table %s" tbl.name
  else
    let t = M.add tbl.name tbl t in
    let* () = Table.check tbl in
    let* () = check_all_fks t in
    Ok t

let equal a b = M.equal Table.equal a b

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]" (Format.pp_print_list Table.pp) (tables t)
