type report = { cells_visited : int; containment_checks : int; covered_types : int }

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

(* -- step (2): attribute coverage per concrete type ---------------------- *)

let coverage env frags =
  let client = env.Query.Env.client in
  let types =
    List.concat_map (fun (_, root) -> Edm.Schema.subtypes client root)
      (Edm.Schema.entity_sets client)
  in
  let* () =
    Datum.Results.all_ok (fun ty -> Mapping.Coverage.attribute_coverage env frags ~etype:ty) types
  in
  Ok (List.length types)

(* -- step (1): one-to-one left sides over the cell partitioning ----------- *)

let cell_collision env key (cell : Cells.cell) =
  let client = env.Query.Env.client in
  let rec pairs = function
    | [] | [ _ ] -> Ok ()
    | f :: rest ->
        let* () =
          Datum.Results.all_ok
            (fun g ->
              if not (Mapping.Views.same_set f g) then Ok ()
              else
                let shared =
                  List.filter
                    (fun c -> List.mem c (Mapping.Fragment.cols g) && not (List.mem c key))
                    (Mapping.Fragment.cols f)
                in
                if shared = [] then Ok ()
                else
                  (* Shared non-key writes: the client conditions must be able
                     to coincide on some entity, and must then agree on which
                     attribute feeds each shared column. *)
                  let joint =
                    Query.Cond.And
                      (f.Mapping.Fragment.client_cond, g.Mapping.Fragment.client_cond)
                  in
                  let compatible_type =
                    match f.Mapping.Fragment.client_source with
                    | Mapping.Fragment.Set s -> (
                        match Edm.Schema.set_root client s with
                        | None -> false
                        | Some root ->
                            List.exists
                              (fun ty -> Query.Cover.satisfiable client ~etype:ty joint)
                              (Edm.Schema.subtypes client root))
                    | Mapping.Fragment.Assoc _ -> false
                  in
                  let consistent_attrs =
                    List.for_all
                      (fun c -> Mapping.Fragment.attr_of f c = Mapping.Fragment.attr_of g c)
                      shared
                  in
                  if compatible_type && consistent_attrs then Ok ()
                  else
                    fail
                      "fragments %s and %s write incompatible data to shared columns {%s} of the \
                       same cell"
                      (Mapping.Fragment.describe f) (Mapping.Fragment.describe g)
                      (String.concat "," shared))
            rest
        in
        pairs rest
  in
  pairs cell.Cells.active

let one_to_one env frags =
  let tables = Mapping.Fragments.tables frags in
  List.fold_left
    (fun acc table ->
      let* visited = acc in
      let key =
        match Relational.Schema.find_table env.Query.Env.store table with
        | Some tbl -> tbl.Relational.Table.key
        | None -> []
      in
      let* result =
        Cells.fold env frags ~table
          ~init:(Ok 0)
          ~f:(fun acc cell ->
            let* n = acc in
            let* () = cell_collision env key cell in
            Ok (n + 1))
      in
      let* n = result in
      Ok (visited + n))
    (Ok 0) tables

(* -- steps (3)-(4): constraint preservation ------------------------------- *)

(* Foreign keys are checked fragment-by-fragment rather than over the fused
   update views: the referencing side of an FK is written by the fragments
   that map its columns, and the referenced key is populated by the union of
   the target table's fragments.  This keeps each containment problem linear
   in the fragment count (the fused full-outer-join views would make the
   subset-side normalization exponential), while the deliberately
   exponential step of full validation remains the cell enumeration. *)

let client_query_renamed (g : Mapping.Fragment.t) cols ~renaming =
  (* π over [g]'s client source, with the store columns [cols] renamed per
     [renaming]; columns that [g] forces to constants are materialized. *)
  let consts = Query.Cond.determined_constants g.Mapping.Fragment.store_cond in
  let item c =
    let dst = match List.assoc_opt c renaming with Some d -> d | None -> c in
    match Mapping.Fragment.attr_of g c with
    | Some a -> Some (Query.Algebra.col_as a dst)
    | None -> (
        match List.assoc_opt c consts with
        | Some v -> Some (Query.Algebra.const v dst)
        | None -> None)
  in
  match List.map item cols with
  | items when List.for_all Option.is_some items ->
      Some (Query.Algebra.Project (List.map Option.get items, Mapping.Fragment.client_side g))
  | _ -> None

let fk_obligations env frags =
  let store = env.Query.Env.store in
  Datum.Results.collect
    (fun table ->
      let tbl = Relational.Schema.get_table store table in
      Datum.Results.collect
        (fun (fk : Relational.Table.foreign_key) ->
          let* () =
            if Mapping.Fragments.on_table frags fk.ref_table <> [] then Ok ()
            else
              fail "foreign key %s -> %s references a table outside the mapping" table
                fk.ref_table
          in
          let renaming = List.combine fk.fk_columns fk.ref_columns in
          let rhs =
            List.filter_map
              (fun g -> client_query_renamed g fk.ref_columns ~renaming:[])
              (Mapping.Fragments.on_table frags fk.ref_table)
          in
          let* rhs =
            match rhs with
            | [] -> fail "no fragment populates the key of %s" fk.ref_table
            | q :: rest ->
                Ok (List.fold_left (fun acc q' -> Query.Algebra.Union_all (acc, q')) q rest)
          in
          Datum.Results.collect
            (fun (g : Mapping.Fragment.t) ->
              let writes = Mapping.Coverage.writes g in
              if not (List.exists writes fk.fk_columns) then Ok []
              else if not (List.for_all writes fk.fk_columns) then
                fail "fragment %s writes foreign key %s(%s) only partially"
                  (Mapping.Fragment.describe g) table
                  (String.concat "," fk.fk_columns)
              else
                match client_query_renamed g fk.fk_columns ~renaming with
                | None -> fail "fragment %s cannot be checked against the foreign key"
                            (Mapping.Fragment.describe g)
                | Some lhs ->
                    Ok
                      [
                        let cols = String.concat "," fk.fk_columns in
                        Containment.Obligation.make ~env ~lhs ~rhs
                          ~name:
                            (lazy
                              (Printf.sprintf "fullc.fk:%s(%s)/%s" table cols
                                 (Mapping.Fragment.describe g)))
                          ~on_fail:
                            (lazy
                              (Printf.sprintf "update views may violate foreign key %s(%s) -> %s"
                                 table cols fk.ref_table));
                      ])
            (Mapping.Fragments.on_table frags table))
        tbl.Relational.Table.fks)
    (Mapping.Fragments.tables frags)

let fk_checks env frags =
  let* obls = fk_obligations env frags in
  let* () =
    Result.map_error Containment.Validation_error.show (Containment.Discharge.run obls)
  in
  Ok (List.length obls)

let nullability env frags =
  Datum.Results.all_ok
    (fun table ->
      let tbl = Relational.Schema.get_table env.Query.Env.store table in
      match Mapping.Coverage.unwritten_not_null (Mapping.Fragments.on_table frags table) tbl with
      | [] -> Ok ()
      | c :: _ -> fail "non-nullable column %s.%s is not mapped" table c)
    (Mapping.Fragments.tables frags)

let phase name f = Obs.Span.with_ ~name:("validate." ^ name) f

let run env frags =
  let* () = phase "well-formed" (fun () -> Mapping.Fragments.well_formed env frags) in
  let* cells_visited = phase "cells" (fun () -> one_to_one env frags) in
  let* covered_types = phase "coverage" (fun () -> coverage env frags) in
  let* () = phase "nullability" (fun () -> nullability env frags) in
  let* containment_checks = phase "fk-checks" (fun () -> fk_checks env frags) in
  Ok { cells_visited; containment_checks; covered_types }
