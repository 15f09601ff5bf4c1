module M = Map.Make (String)

type t = Table.t M.t

let empty = M.empty

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let add_table (tbl : Table.t) t =
  if M.mem tbl.name t then fail "table %s already exists" tbl.name
  else Ok (M.add tbl.name tbl t)

let find_table t name = M.find_opt name t

let get_table t name =
  match find_table t name with
  | Some tbl -> tbl
  | None -> invalid_arg (Printf.sprintf "Relational.Schema: unknown table %s" name)

let tables t = List.map snd (M.bindings t)

let replace_table (tbl : Table.t) t =
  if M.mem tbl.name t then Ok (M.add tbl.name tbl t) else fail "unknown table %s" tbl.name

let well_formed t =
  Datum.Results.all_ok
    (fun (tbl : Table.t) ->
      let* () =
        Datum.Results.all_ok
          (fun k ->
            if Table.mem_column tbl k then Ok ()
            else fail "table %s keys on unknown column %s" tbl.name k)
          tbl.key
      in
      Datum.Results.all_ok
        (fun (fk : Table.foreign_key) ->
          let* target =
            match find_table t fk.ref_table with
            | Some target -> Ok target
            | None -> fail "table %s references unknown table %s" tbl.name fk.ref_table
          in
          let* () =
            if fk.ref_columns = target.Table.key then Ok ()
            else fail "foreign key %s -> %s does not target the full key" tbl.name fk.ref_table
          in
          let* () =
            if List.length fk.fk_columns = List.length fk.ref_columns then Ok ()
            else fail "foreign key %s -> %s has mismatched arity" tbl.name fk.ref_table
          in
          Datum.Results.all_ok
            (fun (c, rc) ->
              match Table.domain_of tbl c, Table.domain_of target rc with
              | Some d, Some rd when Datum.Domain.equal d rd -> Ok ()
              | Some _, Some _ ->
                  fail "foreign key column %s.%s disagrees on domain with %s.%s" tbl.name c
                    fk.ref_table rc
              | None, _ -> fail "foreign key of %s uses unknown column %s" tbl.name c
              | _, None -> fail "foreign key of %s targets unknown column %s.%s" tbl.name fk.ref_table rc)
            (List.combine fk.fk_columns fk.ref_columns))
        tbl.fks)
    (tables t)

let equal a b = M.equal Table.equal a b

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]" (Format.pp_print_list Table.pp) (tables t)
