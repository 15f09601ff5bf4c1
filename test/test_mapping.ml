open Common
module P = Workload.Paper_example
module F = Mapping.Fragment

let env = P.stage4.P.env

let test_fragment_queries () =
  let lhs = Query.Algebra.project_cols (F.attrs P.phi2) (F.client_side P.phi2) in
  check rows_testable "client side of φ2"
    [ row [ ("Id", V.Int 3); ("Department", V.String "Sales") ];
      row [ ("Id", V.Int 4); ("Department", V.String "Support") ] ]
    (Query.Eval.rows env
       { Query.Eval.client = P.sample_client; store = P.sample_store }
       lhs);
  (* [holds] compares the two sides' row sets, so with the client side
     pinned above it pins the store side, renamed to the attributes. *)
  checkb "store side renamed to attrs" true (F.holds env P.sample_client P.sample_store P.phi2)

let test_fragments_hold () =
  List.iter
    (fun (name, f) ->
      checkb (name ^ " holds on the sample pair") true
        (F.holds env P.sample_client P.sample_store f))
    [ ("phi1'", P.phi1'); ("phi2", P.phi2); ("phi3", P.phi3); ("phi4", P.phi4) ];
  checkb "Σ4 related" true
    (Mapping.Fragments.related env P.sample_client P.sample_store
       P.stage4.P.fragments)

let test_fragment_fails_on_skew () =
  (* Remove one Emp row: φ2 must fail. *)
  let store' =
    Relational.Instance.set_rows ~table:"Emp"
      [ row [ ("Id", V.Int 3); ("Dept", V.String "Sales") ] ]
      P.sample_store
  in
  checkb "φ2 broken" false (F.holds env P.sample_client store' P.phi2);
  checkb "Σ4 not related" false
    (Mapping.Fragments.related env P.sample_client store' P.stage4.P.fragments)

let test_well_formed () =
  check_ok "Σ4 well-formed" (Mapping.Fragments.well_formed env P.stage4.P.fragments);
  check_ok "Σ1 well-formed (stage 1 env)"
    (Mapping.Fragments.well_formed P.stage1.P.env P.stage1.P.fragments)

let test_well_formed_negatives () =
  let bad_table = F.entity ~set:"Persons" ~cond:C.True ~table:"Nope" [ ("Id", "Id") ] in
  check_error "unknown table" (F.well_formed env bad_table);
  let missing_key = F.entity ~set:"Persons" ~cond:C.True ~table:"HR" [ ("Name", "Name") ] in
  check_error "projection misses key" (F.well_formed env missing_key);
  let bad_attr = F.entity ~set:"Persons" ~cond:C.True ~table:"HR" [ ("Id", "Id"); ("Zz", "Name") ] in
  check_error "unknown attribute" (F.well_formed env bad_attr);
  let bad_col = F.entity ~set:"Persons" ~cond:C.True ~table:"HR" [ ("Id", "Id"); ("Name", "Zz") ] in
  check_error "unknown column" (F.well_formed env bad_col);
  let type_in_store =
    F.entity ~set:"Persons" ~cond:C.True ~table:"HR" ~store_cond:(C.Is_of "Person")
      [ ("Id", "Id"); ("Name", "Name") ]
  in
  check_error "type atom on store side" (F.well_formed env type_in_store);
  let foreign_type =
    F.entity ~set:"Persons" ~cond:(C.Is_of "Ghost") ~table:"HR" [ ("Id", "Id"); ("Name", "Name") ]
  in
  check_error "type outside hierarchy" (F.well_formed env foreign_type);
  let domain_clash =
    F.entity ~set:"Persons" ~cond:C.True ~table:"HR" [ ("Id", "Name"); ("Name", "Id") ]
  in
  check_error "domain mismatch" (F.well_formed env domain_clash);
  let dup_assoc =
    Mapping.Fragments.of_list [ P.phi4; P.phi4 ]
  in
  check
    Alcotest.(result unit string)
    "association mapped twice"
    (Error "association set Supports is mentioned by more than one fragment")
    (Mapping.Fragments.well_formed env dup_assoc);
  (* A join table whose string columns cannot hold the two int endpoint keys. *)
  let mentors =
    { Edm.Association.name = "Mentors"; end1 = "Employee"; end2 = "Customer";
      mult1 = Edm.Association.Many; mult2 = Edm.Association.Many }
  in
  let mentors_env =
    Query.Env.make
      ~client:(ok_exn (Edm.Schema.add_association mentors env.Query.Env.client))
      ~store:
        (ok_exn
           (Relational.Schema.add_table
              (Relational.Table.make ~name:"MentorsT" ~key:[ "Eid"; "Cid" ]
                 [ ("Eid", D.String, `Not_null); ("Cid", D.String, `Not_null) ])
              env.Query.Env.store))
  in
  check_error "association domain mismatch"
    (F.well_formed mentors_env
       (F.assoc ~assoc:"Mentors" ~table:"MentorsT"
          [ ("Employee.Id", "Eid"); ("Customer.Id", "Cid") ]))

(* Sibling types may declare one attribute name with different domains
   ([Edm.Schema.add_derived] allows it).  A fragment's attribute then takes
   the domain of the earliest declaring type in [subtypes] preorder, where
   children come in name order. *)
let test_sibling_domains () =
  let env_of ~a ~b =
    let client =
      Edm.Schema.empty
      |> Edm.Schema.add_root ~set:"Things"
           (Edm.Entity_type.root ~name:"Thing" ~key:[ "Id" ] [ ("Id", D.Int) ])
      |> Result.get_ok
      |> Edm.Schema.add_derived (Edm.Entity_type.derived ~name:"A" ~parent:"Thing" [ ("X", a) ])
      |> Result.get_ok
      |> Edm.Schema.add_derived (Edm.Entity_type.derived ~name:"B" ~parent:"Thing" [ ("X", b) ])
      |> Result.get_ok
    in
    check_rebuilds_client "siblings may share a name" client;
    let store =
      ok_exn
        (Relational.Schema.add_table
           (Relational.Table.make ~name:"T" ~key:[ "Id" ]
              [ ("Id", D.Int, `Not_null); ("I", D.Int, `Null); ("S", D.String, `Null) ])
           Relational.Schema.empty)
    in
    Query.Env.make ~client ~store
  in
  let into col = F.entity ~set:"Things" ~cond:C.True ~table:"T" [ ("Id", "Id"); ("X", col) ] in
  let a_int = env_of ~a:D.Int ~b:D.String in
  check_ok "X is A's int: int column" (F.well_formed a_int (into "I"));
  check_error "X is A's int: string column" (F.well_formed a_int (into "S"));
  let a_string = env_of ~a:D.String ~b:D.Int in
  check_ok "X is A's string: string column" (F.well_formed a_string (into "S"));
  check_error "X is A's string: int column" (F.well_formed a_string (into "I"));
  checkb "hierarchy_attributes keeps A's domain" true
    (Edm.Schema.hierarchy_attributes a_string.Query.Env.client "Thing"
    = [ ("Id", D.Int); ("X", D.String) ])

(* [Edm.Schema.hierarchy_attributes], which [Fragment.well_formed] checks
   attributes and domains against, agrees with what it replaced: the
   inherited attribute lists of every subtype, concatenated and
   de-duplicated by name. *)
let test_hierarchy_attributes () =
  let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  let check_env tag (env : Query.Env.t) =
    let client = env.Query.Env.client in
    List.iter
      (fun (set, root) ->
        let old =
          List.concat_map (Edm.Schema.attributes client) (Edm.Schema.subtypes client root)
          |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
        in
        checkb (Printf.sprintf "%s %s" tag set) true
          (by_name (Edm.Schema.hierarchy_attributes client root) = old))
      (Edm.Schema.entity_sets client)
  in
  check_env "paper" P.stage4.P.env;
  check_env "chain" (fst (Workload.Chain.generate ~size:30));
  check_env "hub-rim" (fst (Workload.Hub_rim.generate ~n:2 ~m:3 ~style:`Tph));
  check_env "customer" (fst (Workload.Customer.generate ()));
  for seed = 1 to 200 do
    check_env (Printf.sprintf "seed %d" seed) (fst (Workload.Random_model.generate ~seed ()))
  done

(* Attribute coverage by constant-only-projection fragments: neither fragment
   projects Flag, but each client condition fixes it to a constant, so the
   pair covers the attribute exactly when the conditions exhaust its domain. *)
let test_constant_only_coverage () =
  let env_of ~non_null =
    let item =
      Edm.Entity_type.root ~name:"Item" ~key:[ "Id" ]
        ~non_null:(if non_null then [ "Flag" ] else [])
        [ ("Id", D.Int); ("Flag", D.Bool) ]
    in
    let client = ok_exn (Edm.Schema.add_root ~set:"Items" item Edm.Schema.empty) in
    let table n = Relational.Table.make ~name:n ~key:[ "Id" ] [ ("Id", D.Int, `Not_null) ] in
    let store =
      ok_exn (Relational.Schema.add_table (table "Toggled")
                (ok_exn (Relational.Schema.add_table (table "Plain") Relational.Schema.empty)))
    in
    Query.Env.make ~client ~store
  in
  let frags =
    Mapping.Fragments.of_list
      [ F.entity ~set:"Items" ~cond:(C.Cmp ("Flag", C.Eq, V.Bool true)) ~table:"Toggled"
          [ ("Id", "Id") ];
        F.entity ~set:"Items" ~cond:(C.Cmp ("Flag", C.Eq, V.Bool false)) ~table:"Plain"
          [ ("Id", "Id") ] ]
  in
  check_ok "NOT NULL Bool: true/false conditions cover Flag"
    (Mapping.Coverage.attribute_coverage (env_of ~non_null:true) frags ~etype:"Item");
  (* A nullable Flag can be NULL, which neither condition selects. *)
  check_error "nullable Flag escapes both fragments"
    (Mapping.Coverage.attribute_coverage (env_of ~non_null:false) frags ~etype:"Item")

(* Attribute coverage over a non-null Decimal W split at near constants:
   [W <= 1.0] with [W >= 1.2] leaves the values between them uncovered. *)
let test_decimal_coverage_gap () =
  let client =
    ok_exn
      (Edm.Schema.add_root ~set:"Items"
         (Edm.Entity_type.root ~name:"Item" ~key:[ "Id" ] ~non_null:[ "W" ]
            [ ("Id", D.Int); ("W", D.Decimal) ])
         Edm.Schema.empty)
  in
  let table n =
    Relational.Table.make ~name:n ~key:[ "Id" ]
      [ ("Id", D.Int, `Not_null); ("W", D.Decimal, `Null) ]
  in
  let store =
    ok_exn
      (Relational.Schema.add_table (table "Low")
         (ok_exn (Relational.Schema.add_table (table "High") Relational.Schema.empty)))
  in
  let env = Query.Env.make ~client ~store in
  let frags high =
    Mapping.Fragments.of_list
      [ F.entity ~set:"Items" ~cond:(C.Cmp ("W", C.Le, V.Decimal 1.0)) ~table:"Low"
          [ ("Id", "Id"); ("W", "W") ];
        F.entity ~set:"Items" ~cond:high ~table:"High" [ ("Id", "Id"); ("W", "W") ] ]
  in
  check_error "W <= 1.0 / W >= 1.2 leaves a gap"
    (Mapping.Coverage.attribute_coverage env (frags (C.Cmp ("W", C.Ge, V.Decimal 1.2)))
       ~etype:"Item");
  check_ok "W <= 1.0 / W > 1.0 covers W"
    (Mapping.Coverage.attribute_coverage env (frags (C.Cmp ("W", C.Gt, V.Decimal 1.0)))
       ~etype:"Item")

let test_collection_ops () =
  let s = P.stage4.P.fragments in
  check Alcotest.int "size" 4 (Mapping.Fragments.size s);
  check Alcotest.(list string) "tables" [ "Client"; "Emp"; "HR" ] (Mapping.Fragments.tables s);
  check Alcotest.int "fragments on Client" 2 (List.length (Mapping.Fragments.on_table s "Client"));
  check Alcotest.int "fragments of set" 3 (List.length (Mapping.Fragments.of_set s "Persons"));
  check Alcotest.int "fragments of assoc" 1 (List.length (Mapping.Fragments.of_assoc s "Supports"));
  checkb "column_used Cid" true (Mapping.Fragments.column_used s ~table:"Client" "Cid");
  checkb "column_used Eid (assoc)" true (Mapping.Fragments.column_used s ~table:"Client" "Eid");
  checkb "column unused" false (Mapping.Fragments.column_used s ~table:"HR" "Zz");
  (* Eid is unused before φ4 — check 1 of AddAssocFK relies on this. *)
  checkb "Eid unused at stage 3" false
    (Mapping.Fragments.column_used P.stage3.P.fragments ~table:"Client" "Eid");
  let removed = Mapping.Fragments.remove P.phi4 s in
  check Alcotest.int "remove" 3 (Mapping.Fragments.size removed);
  checkb "equal up to order" true
    (Mapping.Fragments.equal s (Mapping.Fragments.of_list [ P.phi4; P.phi3; P.phi2; P.phi1' ]))

let prop_identity_store_relates =
  (* For any conforming client state, materializing the canonical store state
     by hand and checking Σ2 (Person + Employee, total TPT mapping). *)
  qtest "Σ2 holds on canonically stored states" ~count:100 arb_client_instance (fun inst ->
      let env2 = P.stage2.P.env in
      (* Keep only Person/Employee entities; store them TPT-style. *)
      let entities =
        List.filter
          (fun (e : Edm.Instance.entity) -> e.etype = "Person" || e.etype = "Employee")
          (Edm.Instance.entities inst ~set:"Persons")
      in
      let client =
        List.fold_left
          (fun i e -> Edm.Instance.add_entity ~set:"Persons" e i)
          Edm.Instance.empty entities
      in
      let store =
        List.fold_left
          (fun s (e : Edm.Instance.entity) ->
            let s =
              Relational.Instance.add_row ~table:"HR"
                (Datum.Row.project [ "Id"; "Name" ] e.attrs)
                s
            in
            if e.etype = "Employee" then
              Relational.Instance.add_row ~table:"Emp"
                (Datum.Row.of_list
                   [ ("Id", Datum.Row.get "Id" e.attrs);
                     ("Dept", Datum.Row.get "Department" e.attrs) ])
                s
            else s)
          Relational.Instance.empty entities
      in
      Mapping.Fragments.related env2 client store P.stage2.P.fragments)

(* The container's indexes under random edits: from a random model's
   fragments, a random sequence of [add] (a copy of a fragment under
   another table or naming another type), [remove] and [replace] (a
   rewritten client condition, or a move to another table and another
   client source, as Refactor moves a subtree's fragments) keeps [to_list]
   equal to the same edits on a plain list, and every lookup equal to its
   recomputation ({!Adapt_walk.lookups}). *)
let prop_container_edits =
  let module F = Mapping.Fragment in
  let module Fs = Mapping.Fragments in
  let gen_op = QCheck.Gen.(triple (int_bound 3) (int_bound 1000) (int_bound 1000)) in
  qtest "container edits keep the indexes" ~count:60
    (QCheck.make
       ~print:QCheck.Print.(pair int (list (triple int int int)))
       QCheck.Gen.(pair (int_range 1 40) (list_size (int_range 1 25) gen_op)))
    (fun (seed, ops) ->
      let env, frags = Workload.Random_model.generate ~seed () in
      let types = List.map (fun (e : Edm.Entity_type.t) -> e.name) (Edm.Schema.types env.Query.Env.client) in
      let pick l i = List.nth l (i mod List.length l) in
      let renamed j (f : F.t) =
        if j mod 2 = 0 then { f with client_cond = C.And (C.Is_of (pick types j), f.client_cond) }
        else { f with table = f.table ^ "'" }
      in
      let first = List.hd (Fs.to_list frags) in
      let sources =
        List.sort_uniq compare (List.map (fun (f : F.t) -> f.client_source) (Fs.to_list frags))
      in
      let step (frags, l) (kind, i, j) =
        match kind, l with
        | _, [] | 0, _ ->
            let f = renamed j (if l = [] then first else pick l i) in
            (Fs.add f frags, l @ [ f ])
        | 1, _ ->
            let f = pick l i in
            (Fs.remove f frags, List.filter (fun g -> not (F.equal f g)) l)
        | 2, _ ->
            let n = i mod List.length l in
            let f = List.nth (Fs.to_list frags) n in
            let g = { f with client_cond = C.Or (C.Is_of_only (pick types j), f.client_cond) } in
            (Fs.replace f g frags, List.mapi (fun m h -> if m = n then g else h) l)
        | _ ->
            let n = i mod List.length l in
            let f = List.nth (Fs.to_list frags) n in
            let others =
              List.filter (fun s -> not (F.equal_client_source s f.client_source)) sources
            in
            let client_source = if others = [] then f.client_source else pick others j in
            let g = { f with table = f.table ^ "'"; client_source } in
            (Fs.replace f g frags, List.mapi (fun m h -> if m = n then g else h) l)
      in
      ignore
        (List.fold_left
           (fun acc op ->
             let frags, l = step acc op in
             checkb "to_list as the plain list" true (List.equal F.equal l (Fs.to_list frags));
             Adapt_walk.lookups (Printf.sprintf "seed %d" seed) env frags;
             (frags, l))
           (frags, Fs.to_list frags) ops);
      true)

let () =
  Alcotest.run "mapping"
    [
      ( "fragment",
        [
          Alcotest.test_case "queries" `Quick test_fragment_queries;
          Alcotest.test_case "equations hold" `Quick test_fragments_hold;
          Alcotest.test_case "equations fail on skew" `Quick test_fragment_fails_on_skew;
          Alcotest.test_case "well-formed" `Quick test_well_formed;
          Alcotest.test_case "well-formed negatives" `Quick test_well_formed_negatives;
          Alcotest.test_case "constant-only coverage" `Quick test_constant_only_coverage;
          Alcotest.test_case "Decimal coverage gap" `Quick test_decimal_coverage_gap;
          Alcotest.test_case "sibling attribute domains" `Quick test_sibling_domains;
          Alcotest.test_case "hierarchy attributes" `Quick test_hierarchy_attributes;
        ] );
      ( "fragments",
        [ Alcotest.test_case "collection ops" `Quick test_collection_ops;
          prop_identity_store_relates;
          prop_container_edits ] );
    ]
