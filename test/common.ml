(* Shared helpers for the test suites. *)

module V = Datum.Value
module D = Datum.Domain
module C = Query.Cond
module A = Query.Algebra

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let ok_exn = function Ok x -> x | Error e -> Alcotest.failf "unexpected error: %s" e

(* Validation_error-typed results (Core.Engine / Core.Session). *)
let show_v = Containment.Validation_error.show

let ok_v = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %s" (show_v e)

(* Error-severity [Lint.Wf] findings over a state's compiled views, rendered,
   followed by the independent fragment check [Mapping.Fragments.well_formed]
   on its mapping.  The compilers and SMOs do not run these checks
   themselves; the random compile and SMO pipelines of the suite assert them
   after every step. *)
let wf_errors (st : Core.State.t) =
  let env = st.Core.State.env in
  (Lint.Wf.check env st.Core.State.query_views st.Core.State.update_views
  |> Lint.Diag.errors
  |> List.map (Format.asprintf "%a" Lint.Diag.pp))
  @
  match Mapping.Fragments.well_formed env st.Core.State.fragments with
  | Ok () -> []
  | Error e -> [ "fragments: " ^ e ]

let check_wf tag st =
  check Alcotest.(list string) (tag ^ ": well-formed views and fragments") [] (wf_errors st)

(* What every accepted step must leave behind besides well-formed views:
   no mapped table has a non-nullable column its fragments leave unwritten
   ({!Mapping.Coverage.unwritten_not_null}), and lint reports no L002 (a
   lint error implies that validation rejects). *)
let check_written tag (st : Core.State.t) =
  let env = st.Core.State.env and frags = st.Core.State.fragments in
  let unwritten =
    List.concat_map
      (fun t ->
        Mapping.Coverage.unwritten_not_null (Mapping.Fragments.on_table frags t)
          (Relational.Schema.get_table env.Query.Env.store t)
        |> List.map (fun c -> t ^ "." ^ c))
      (Mapping.Fragments.tables frags)
  in
  check Alcotest.(list string) (tag ^ ": non-nullable columns written") [] unwritten;
  check Alcotest.(list string) (tag ^ ": no L002") []
    (Lint.Analyze.run env frags
    |> List.filter (fun (d : Lint.Diag.t) -> d.Lint.Diag.code = "L002")
    |> List.map (Format.asprintf "%a" Lint.Diag.pp))

let check_ok msg = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: expected Ok, got Error %s" msg e

let check_error msg = function
  | Ok () -> Alcotest.failf "%s: expected Error, got Ok" msg
  | Error _ -> ()

(* The builders as the oracle of a built schema: rebuilding it from its own
   declarations is [Ok] and equal to it. *)
let check_rebuilds_client msg s =
  match
    Edm.Schema.of_declarations (Edm.Schema.types s) ~sets:(Edm.Schema.entity_sets s)
      (Edm.Schema.associations s)
  with
  | Ok s' -> checkb (msg ^ ": the client schema rebuilds") true (Edm.Schema.equal s s')
  | Error (_, e) -> Alcotest.failf "%s: the client schema does not rebuild: %s" msg e

let check_rebuilds_store msg s =
  match Relational.Schema.of_tables (Relational.Schema.tables s) with
  | Ok s' -> checkb (msg ^ ": the store schema rebuilds") true (Relational.Schema.equal s s')
  | Error (_, e) -> Alcotest.failf "%s: the store schema does not rebuild: %s" msg e

let row = Datum.Row.of_list

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let rows_testable =
  Alcotest.testable
    (Format.pp_print_list Datum.Row.pp)
    (fun a b ->
      List.equal Datum.Row.equal
        (List.sort_uniq Datum.Row.compare a)
        (List.sort_uniq Datum.Row.compare b))

let eval_set env db q = Query.Eval.rows_set env db q

(* Instance-level roundtrip through a state's views: the client state read
   back from the store its update views write equals the one written. *)
let roundtrip_ok (st : Core.State.t) inst =
  Result.map
    (fun back -> Edm.Instance.equal back inst)
    (Query.View.roundtrip st.Core.State.env st.Core.State.query_views st.Core.State.update_views inst)

(* Keep only the entity sets and associations of [old_schema], and in the
   kept sets only the entities whose type it knows: the state [f⁻¹] view
   that phrases the paper's soundness restriction on mapping adaptation. *)
let restrict_new_components ~old_schema inst =
  let keep_set acc (set, _) =
    Edm.Instance.set_entities ~set
      (List.filter
         (fun (e : Edm.Instance.entity) -> Edm.Schema.mem_type old_schema e.etype)
         (Edm.Instance.entities inst ~set))
      acc
  in
  let keep_assoc acc (a : Edm.Association.t) =
    Edm.Instance.set_links ~assoc:a.name (Edm.Instance.links inst ~assoc:a.name) acc
  in
  List.fold_left keep_assoc
    (List.fold_left keep_set Edm.Instance.empty (Edm.Schema.entity_sets old_schema))
    (Edm.Schema.associations old_schema)

(* -- the model of examples/models/acct.imc -------------------------------- *)

(* One root Acct stored in TAcct. *)
let acct_model () =
  let client =
    ok_exn
      (Edm.Schema.add_root ~set:"Accts"
         (Edm.Entity_type.root ~name:"Acct" ~key:[ "Id" ] [ ("Id", D.Int) ])
         Edm.Schema.empty)
  in
  let store =
    ok_exn
      (Relational.Schema.add_table
         (Relational.Table.make ~name:"TAcct" ~key:[ "Id" ] [ ("Id", D.Int, `Not_null) ])
         Relational.Schema.empty)
  in
  ( Query.Env.make ~client ~store,
    Mapping.Fragments.of_list
      [ Mapping.Fragment.entity ~set:"Accts" ~cond:(C.Is_of "Acct") ~table:"TAcct" [ ("Id", "Id") ] ] )

(* examples/models/acct_gold.smo: a Vip below Acct with a non-null Tier,
   stored in TGold and, by Id alone, in TGoldX (whose foreign key references
   TGold) when Tier = "gold", and in TOther otherwise. *)
let gold_vip =
  Edm.Entity_type.derived ~name:"Vip" ~parent:"Acct" ~non_null:[ "Tier" ] [ ("Tier", D.String) ]

let gold_parts =
  let gold = C.Cmp ("Tier", C.Eq, V.String "gold") in
  let fk ref_table = { Relational.Table.fk_columns = [ "Id" ]; ref_table; ref_columns = [ "Id" ] } in
  let part name ref_table cond cols =
    { Core.Add_entity_part.part_alpha = cols; part_cond = cond;
      part_table =
        Relational.Table.make ~name ~key:[ "Id" ] ~fks:[ fk ref_table ]
          (List.map (function "Id" -> ("Id", D.Int, `Not_null) | c -> (c, D.String, `Null)) cols);
      part_fmap = List.map (fun c -> (c, c)) cols }
  in
  [ part "TGold" "TAcct" gold [ "Id"; "Tier" ]; part "TGoldX" "TGold" gold [ "Id" ];
    part "TOther" "TAcct" (C.Cmp ("Tier", C.Neq, V.String "gold")) [ "Id"; "Tier" ] ]

(* -- random generation over the paper-example schemas -------------------- *)

let pe = Workload.Paper_example.stage4

let gen_person_entity =
  QCheck.Gen.(
    let* id = int_range 1 30 in
    let* name = oneofl [ "Ana"; "Bob"; "Cyd"; "Dan" ] in
    let* kind = int_range 0 2 in
    return
      (match kind with
      | 0 -> Edm.Instance.entity ~etype:"Person" [ ("Id", V.Int id); ("Name", V.String name) ]
      | 1 ->
          Edm.Instance.entity ~etype:"Employee"
            [ ("Id", V.Int id); ("Name", V.String name); ("Department", V.String "Sales") ]
      | _ ->
          Edm.Instance.entity ~etype:"Customer"
            [ ("Id", V.Int id); ("Name", V.String name); ("CredScore", V.Int (id * 10));
              ("BillAddr", V.String "Addr") ]))

(* A conforming client state of the stage-4 schema: unique ids, links only
   between existing customers and employees. *)
let gen_client_instance =
  QCheck.Gen.(
    let* entities = list_size (int_range 0 8) gen_person_entity in
    let distinct =
      List.fold_left
        (fun acc (e : Edm.Instance.entity) ->
          let id = Datum.Row.get "Id" e.attrs in
          if List.exists (fun (f : Edm.Instance.entity) -> V.equal (Datum.Row.get "Id" f.attrs) id) acc
          then acc
          else e :: acc)
        [] entities
    in
    let customers = List.filter (fun (e : Edm.Instance.entity) -> e.etype = "Customer") distinct in
    let employees = List.filter (fun (e : Edm.Instance.entity) -> e.etype = "Employee") distinct in
    let* link_count = int_range 0 (min 2 (List.length customers)) in
    let inst =
      List.fold_left
        (fun inst e -> Edm.Instance.add_entity ~set:"Persons" e inst)
        Edm.Instance.empty distinct
    in
    match employees with
    | [] -> return inst
    | (emp : Edm.Instance.entity) :: _ ->
        let linked = List.filteri (fun i _ -> i < link_count) customers in
        return
          (List.fold_left
             (fun inst (c : Edm.Instance.entity) ->
               Edm.Instance.add_link ~assoc:"Supports"
                 (Datum.Row.of_list
                    [ ("Customer.Id", Datum.Row.get "Id" c.attrs);
                      ("Employee.Id", Datum.Row.get "Id" emp.attrs) ])
                 inst)
             inst linked))

let arb_client_instance =
  QCheck.make ~print:(Format.asprintf "%a" Edm.Instance.pp) gen_client_instance

(* Random conditions over the Persons hierarchy attributes. *)
let gen_cond =
  QCheck.Gen.(
    let atom =
      oneof
        [
          return (C.Is_of "Person");
          return (C.Is_of "Employee");
          return (C.Is_of "Customer");
          return (C.Is_of_only "Person");
          return (C.Is_null "Department");
          return (C.Is_not_null "Department");
          (let* n = int_range 0 20 in
           let* op = oneofl [ C.Eq; C.Neq; C.Lt; C.Le; C.Gt; C.Ge ] in
           return (C.Cmp ("Id", op, V.Int n)));
          return C.True;
          return C.False;
        ]
    in
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 1 then atom
            else
              frequency
                [
                  (2, atom);
                  (2, map2 (fun a b -> C.And (a, b)) (self (n / 2)) (self (n / 2)));
                  (2, map2 (fun a b -> C.Or (a, b)) (self (n / 2)) (self (n / 2)));
                ])
          (min n 8)))

let arb_cond = QCheck.make ~print:C.show gen_cond

(* Same shape but without type atoms — for properties about [Cond.negate],
   which is undefined on type tests. *)
let gen_cond_no_types =
  QCheck.Gen.(
    let atom =
      oneof
        [
          return (C.Is_null "Department");
          return (C.Is_not_null "Department");
          (let* n = int_range 0 20 in
           let* op = oneofl [ C.Eq; C.Neq; C.Lt; C.Le; C.Gt; C.Ge ] in
           return (C.Cmp ("Id", op, V.Int n)));
          return C.True;
          return C.False;
        ]
    in
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 1 then atom
            else
              frequency
                [
                  (2, atom);
                  (2, map2 (fun a b -> C.And (a, b)) (self (n / 2)) (self (n / 2)));
                  (2, map2 (fun a b -> C.Or (a, b)) (self (n / 2)) (self (n / 2)));
                ])
          (min n 8)))

let arb_cond_no_types = QCheck.make ~print:C.show gen_cond_no_types

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* An AddEntityPart of [FreshPart] below [Fresh] (itself below [root]), in
   a shape the seed picks ([seed mod 5]):
   - 1, 2 or 3 partitions: one with ψ = TRUE; two with disjoint ranges of
     [Band]; two split on the closed-domain [Kind], which neither stores (ψ
     determines it, as in the gender example); three where two [Band]
     ranges overlap and the third (ψ = TRUE) stores the rest; or three that
     cover the Decimal [Weight] and String [Code] at near constants
     (100.0 and 100.1, ['s5'] and ['s5~'], between which the generated
     values [100.25] and ['s50'] fall);
   - with [~gap:true] instead, two partitions that leave a gap there,
     [100.0 < Weight < 100.1] with ['s5' < Code < 's5~'], which the step
     must refuse;
   - P = NIL, the parent [Fresh] or the grandparent [root];
   - under the parent, the first partition re-stores an inherited attribute;
     under the grandparent or NIL every partition set re-stores [Fresh]'s
     attributes.
   [fresh_attrs] are [Fresh]'s attributes when the step runs; under a
   parent or grandparent the new tables reference [ptable], the root's key
   carrier. *)
let aep_step ?(gap = false) seed client ~root ~ptable ~fresh_attrs =
  let key = Edm.Schema.key_of client root in
  let root_attrs = Edm.Schema.attributes client root in
  let own =
    [ ("Band", D.Int); ("Kind", D.Enum [ "A"; "B" ]); ("Weight", D.Decimal); ("Code", D.String) ]
  in
  let p_ref = match seed / 3 mod 3 with 0 -> Some "Fresh" | 1 -> Some root | _ -> None in
  let inherited =
    match p_ref with
    | Some "Fresh" -> []
    | Some _ -> fresh_attrs
    | None -> List.filter (fun (a, _) -> not (List.mem a key)) root_attrs @ fresh_attrs
  in
  let required = inherited @ own in
  (* Under the parent, the first partition also stores an attribute the
     parent's view already yields. *)
  let restored =
    match p_ref, fresh_attrs with
    | Some "Fresh", a :: _ -> [ a ]
    | _ -> []
  in
  let domains = List.filter (fun (a, _) -> List.mem a key) root_attrs @ required @ restored in
  let part i attrs cond =
    let name = Printf.sprintf "TFreshP%d" i in
    let cols = key @ List.map fst attrs in
    let fks =
      match p_ref with
      | None -> []
      | Some _ -> [ { Relational.Table.fk_columns = key; ref_table = ptable; ref_columns = key } ]
    in
    {
      Core.Add_entity_part.part_alpha = cols;
      part_cond = cond;
      part_table =
        Relational.Table.make ~name ~key ~fks
          (List.map
             (fun c ->
               (c, List.assoc c domains, if List.mem c key then `Not_null else `Null))
             cols);
      part_fmap = List.map (fun c -> (c, c)) cols;
    }
  in
  let band op n = C.Cmp ("Band", op, V.Int n) in
  let weight op f = C.Cmp ("Weight", op, V.Decimal f) in
  let code op v = C.Cmp ("Code", op, V.String v) in
  let without a = List.filter (fun (a', _) -> a' <> a) in
  let parts =
    match if gap then 5 else seed mod 5 with
    | 0 -> [ part 1 (restored @ required) C.True ]
    | 1 -> [ part 1 (restored @ required) (band C.Lt 50); part 2 required (band C.Ge 50) ]
    | 2 ->
        [ part 1 (restored @ without "Kind" required) (C.Cmp ("Kind", C.Eq, V.String "A"));
          part 2 (without "Kind" required) (C.Cmp ("Kind", C.Eq, V.String "B")) ]
    | 3 ->
        [ part 1 (restored @ without "Band" required) C.True;
          part 2 [ ("Band", D.Int) ] (band C.Lt 60);
          part 3 [ ("Band", D.Int) ] (band C.Ge 40) ]
    | 4 ->
        [ part 1 (restored @ required) (weight C.Lt 100.1);
          part 2 required (C.And (weight C.Ge 100.0, code C.Lt "s5~"));
          part 3 required (C.And (weight C.Ge 100.0, code C.Ge "s5")) ]
    | _ ->
        [ part 1 (restored @ required) (C.Or (weight C.Le 100.0, code C.Le "s5"));
          part 2 required (C.Or (weight C.Ge 100.1, code C.Ge "s5~")) ]
  in
  Core.Smo.Add_entity_part
    { entity =
        Edm.Entity_type.derived ~name:"FreshPart" ~parent:"Fresh"
          ~non_null:[ "Band"; "Kind"; "Weight"; "Code" ] own;
      p_ref;
      parts }

(* The SMO pipeline grown below the root of a random model's first entity
   set, or [None] when that root has no key-carrying table.  Its shape
   varies with the seed: grow, then widen with a property, then (sometimes)
   shrink again, then add a partitioned subtype ({!aep_step}, with a
   coverage gap under [~gap:true]), drop that subtype again, and drop the
   model's first association if it has one. *)
let random_pipeline ?gap seed (st : Core.State.t) =
  let client = st.Core.State.env.Query.Env.client in
  match Edm.Schema.entity_sets client with
  | [] -> None
  | (_, root) :: _ -> (
      match Modef.Style.key_carrier st.Core.State.env st.Core.State.fragments ~etype:root with
      | None -> None
      | Some (ptable, _) ->
          let entity =
            Edm.Entity_type.derived ~name:"Fresh" ~parent:root [ ("FreshAttr", D.String) ]
          in
          let table =
            Relational.Table.make ~name:"TFresh" ~key:[ "Id" ]
              ~fks:[ { Relational.Table.fk_columns = [ "Id" ]; ref_table = ptable;
                       ref_columns = [ "Id" ] } ]
              [ ("Id", D.Int, `Not_null); ("FreshAttr", D.String, `Null) ]
          in
          let widen = seed mod 2 = 0 and shrink = seed mod 3 = 0 in
          let fresh_attrs =
            (if shrink then [] else [ ("FreshAttr", D.String) ])
            @ if widen then [ ("FreshExtra", D.Int) ] else []
          in
          Some
            ([ Core.Smo.Add_entity
                 { entity; alpha = [ "Id"; "FreshAttr" ]; p_ref = Some root; table;
                   fmap = [ ("Id", "Id"); ("FreshAttr", "FreshAttr") ] } ]
            @ (if widen then
                 [ Core.Smo.Add_property
                     { etype = "Fresh"; attr = ("FreshExtra", D.Int);
                       target =
                         Core.Add_property.To_existing_table
                           { table = "TFresh"; column = "FreshExtra" } } ]
               else [])
            @ (if shrink then [ Core.Smo.Drop_property { etype = "Fresh"; attr = "FreshAttr" } ]
               else [])
            @ [ aep_step ?gap seed client ~root ~ptable ~fresh_attrs;
                Core.Smo.Drop_entity { etype = "FreshPart" } ]
            @
            match Edm.Schema.associations client with
            | a :: _ -> [ Core.Smo.Drop_association { assoc = a.Edm.Association.name } ]
            | [] -> []))
