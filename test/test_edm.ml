open Common

let client = Workload.Paper_example.stage4.env.Query.Env.client
let slist = Alcotest.(list string)

let test_hierarchy () =
  check slist "ancestors of Employee" [ "Person" ] (Edm.Schema.ancestors client "Employee");
  check slist "ancestors of Person" [] (Edm.Schema.ancestors client "Person");
  check slist "children of Person" [ "Customer"; "Employee" ] (Edm.Schema.children client "Person");
  check slist "subtypes of Person" [ "Person"; "Customer"; "Employee" ]
    (Edm.Schema.subtypes client "Person");
  checkb "Employee <= Person" true (Edm.Schema.is_subtype client ~sub:"Employee" ~sup:"Person");
  checkb "Person not <= Employee" false (Edm.Schema.is_subtype client ~sub:"Person" ~sup:"Employee");
  checkb "reflexive" true (Edm.Schema.is_subtype client ~sub:"Person" ~sup:"Person");
  check Alcotest.string "root_of" "Person" (Edm.Schema.root_of client "Customer")

let test_strictly_between () =
  (* Deeper chain: A <- B <- C <- D *)
  let s =
    ok_exn
      (Edm.Schema.add_root ~set:"As"
         (Edm.Entity_type.root ~name:"A" ~key:[ "Id" ] [ ("Id", D.Int) ])
         Edm.Schema.empty)
  in
  let s = ok_exn (Edm.Schema.add_derived (Edm.Entity_type.derived ~name:"B" ~parent:"A" []) s) in
  let s = ok_exn (Edm.Schema.add_derived (Edm.Entity_type.derived ~name:"C" ~parent:"B" []) s) in
  let s = ok_exn (Edm.Schema.add_derived (Edm.Entity_type.derived ~name:"D" ~parent:"C" []) s) in
  check slist "between D and A" [ "C"; "B" ] (Edm.Schema.strictly_between s ~low:"D" ~high:(Some "A"));
  check slist "between D and NIL" [ "C"; "B"; "A" ] (Edm.Schema.strictly_between s ~low:"D" ~high:None);
  check slist "between B and A" [] (Edm.Schema.strictly_between s ~low:"B" ~high:(Some "A"))

let test_attributes () =
  check slist "att(Employee)" [ "Id"; "Name"; "Department" ]
    (Edm.Schema.attribute_names client "Employee");
  check slist "att(Customer)" [ "Id"; "Name"; "CredScore"; "BillAddr" ]
    (Edm.Schema.attribute_names client "Customer");
  check slist "key of derived type" [ "Id" ] (Edm.Schema.key_of client "Customer");
  checkb "attribute domain" true
    (Edm.Schema.attribute_domain client "Customer" "CredScore" = Some D.Int)

let test_sets_and_assocs () =
  checkb "set_of_type derived" true (Edm.Schema.set_of_type client "Employee" = Some "Persons");
  checkb "set_root" true (Edm.Schema.set_root client "Persons" = Some "Person");
  check slist "assoc columns" [ "Customer.Id"; "Employee.Id" ]
    (Edm.Schema.association_columns client
       (Option.get (Edm.Schema.find_association client "Supports")));
  check Alcotest.int "associations_on Customer" 1
    (List.length (Edm.Schema.associations_on client "Customer"));
  check Alcotest.int "associations_on Person" 0
    (List.length (Edm.Schema.associations_on client "Person"))

let test_construction_errors () =
  let dup = Edm.Entity_type.root ~name:"Person" ~key:[ "Id" ] [ ("Id", D.Int) ] in
  check_error "duplicate type" (Result.map (fun _ -> ()) (Edm.Schema.add_root ~set:"X" dup client));
  let orphan = Edm.Entity_type.derived ~name:"Z" ~parent:"Nope" [] in
  check_error "unknown parent" (Result.map (fun _ -> ()) (Edm.Schema.add_derived orphan client));
  let shadow = Edm.Entity_type.derived ~name:"Shadow" ~parent:"Person" [ ("Name", D.String) ] in
  check_error "attribute shadowing" (Result.map (fun _ -> ()) (Edm.Schema.add_derived shadow client));
  let twice = { dup with name = "Twice"; declared = [ ("Id", D.Int); ("Id", D.Int) ] } in
  check_error "a root declares an attribute twice"
    (Result.map (fun _ -> ()) (Edm.Schema.add_root ~set:"Twices" twice client));
  let ghost = { dup with name = "Ghost"; non_null = [ "Nope" ] } in
  check_error "a root marks an undeclared attribute non-null"
    (Result.map (fun _ -> ()) (Edm.Schema.add_root ~set:"Ghosts" ghost client));
  let kid = Edm.Entity_type.derived ~name:"Kid" ~parent:"Person" [ ("Age", D.Int) ] in
  check_error "a derived type declares an attribute twice"
    (Result.map (fun _ -> ())
       (Edm.Schema.add_derived { kid with declared = [ ("Age", D.Int); ("Age", D.String) ] } client));
  check_error "a derived type marks an undeclared attribute non-null"
    (Result.map (fun _ -> ()) (Edm.Schema.add_derived { kid with non_null = [ "Name" ] } client));
  check_error "remove non-leaf" (Result.map (fun _ -> ()) (Edm.Schema.remove_type "Person" client));
  check_error "remove assoc endpoint"
    (Result.map (fun _ -> ()) (Edm.Schema.remove_type "Customer" client));
  check_error "self association"
    (Result.map
       (fun _ -> ())
       (Edm.Schema.add_association
          { Edm.Association.name = "Self"; end1 = "Person"; end2 = "Person";
            mult1 = Edm.Association.Many; mult2 = Edm.Association.Many }
          client))

(* A type and its descendants, removed leaf first so that each
   [remove_type] removes a leaf. *)
let remove_leaf_first name s =
  List.fold_left
    (fun acc n -> Result.bind acc (Edm.Schema.remove_type n))
    (Ok s)
    (List.rev (Edm.Schema.subtypes s name))

let test_evolution () =
  let s = ok_exn (Edm.Schema.add_attribute ~etype:"Employee" ("Level", D.Int) client) in
  check slist "attribute appended" [ "Id"; "Name"; "Department"; "Level" ]
    (Edm.Schema.attribute_names s "Employee");
  check_error "attribute clash via descendant"
    (Result.map (fun _ -> ()) (Edm.Schema.add_attribute ~etype:"Person" ("Department", D.Int) client));
  (* The leaf-first walk stops at an association endpoint inside. *)
  check_error "subtree removal with endpoint"
    (Result.map (fun _ -> ()) (remove_leaf_first "Person" client));
  let s2 = ok_exn (Edm.Schema.remove_association "Supports" client) in
  let s3 = ok_exn (remove_leaf_first "Person" s2) in
  checkb "all types gone" true (Edm.Schema.types s3 = []);
  checkb "set gone" true (Edm.Schema.entity_sets s3 = [])

let test_reparent () =
  (* Refactor scenario: two roots, fold one under the other. *)
  let s =
    ok_exn
      (Edm.Schema.add_root ~set:"As"
         (Edm.Entity_type.root ~name:"A" ~key:[ "Id" ] [ ("Id", D.Int) ])
         Edm.Schema.empty)
  in
  let s =
    ok_exn
      (Edm.Schema.add_root ~set:"Bs"
         (Edm.Entity_type.root ~name:"B" ~key:[ "Bid" ] [ ("Bid", D.Int); ("X", D.String) ])
         s)
  in
  let s' = ok_exn (Edm.Schema.reparent ~etype:"B" ~parent:"A" s) in
  checkb "B now derived" true (Edm.Schema.parent s' "B" = Some "A");
  check slist "B attrs include inherited Id" [ "Id"; "Bid"; "X" ] (Edm.Schema.attribute_names s' "B");
  check slist "B keys on A's key" [ "Id" ] (Edm.Schema.key_of s' "B");
  checkb "Bs set dropped" true (Edm.Schema.set_root s' "Bs" = None);
  check_rebuilds_client "after reparenting" s';
  check_error "cycle rejected" (Result.map (fun _ -> ()) (Edm.Schema.reparent ~etype:"A" ~parent:"B" s'))

let test_well_formed () =
  check_rebuilds_client "paper schema" client

(* The bulk builder against the one-at-a-time fold of [Schema_fold], on
   customer, chain-50 and random models, with the declarations in name
   order and reversed: both build one schema, with the same children,
   hierarchy attributes and endpoint associations at every type. *)
let test_bulk_matches_fold () =
  let same what s =
    List.iter
      (fun (how, reversed) ->
        let what = what ^ how in
        let order l = if reversed then List.rev l else l in
        let types = order (Edm.Schema.types s) and sets = order (Edm.Schema.entity_sets s) in
        let assocs = order (Edm.Schema.associations s) in
        let bulk = ok_exn (Result.map_error snd (Edm.Schema.of_declarations types ~sets assocs)) in
        let fold = ok_exn (Schema_fold.of_declarations types ~sets assocs) in
        checkb (what ^ ": equal schemas") true (Edm.Schema.equal bulk fold);
        let assoc_names t ty = List.map (fun (a : Edm.Association.t) -> a.name) (Edm.Schema.associations_on t ty) in
        List.iter
          (fun (e : Edm.Entity_type.t) ->
            let at = what ^ ", " ^ e.name in
            check slist (at ^ ": children") (Edm.Schema.children fold e.name) (Edm.Schema.children bulk e.name);
            checkb (at ^ ": hierarchy attributes") true
              (Edm.Schema.hierarchy_attributes fold e.name = Edm.Schema.hierarchy_attributes bulk e.name);
            check slist (at ^ ": associations") (assoc_names fold e.name) (assoc_names bulk e.name))
          types)
      [ ("", false); (", reversed", true) ]
  in
  let client_of (env, _) = env.Query.Env.client in
  (* Siblings' subtrees declare [X] and [Y] with other domains: each keeps
     the domain of its earliest declaring type in preorder. *)
  let derived name parent declared = Edm.Entity_type.derived ~name ~parent declared in
  same "namesake attributes"
    (ok_exn
       (Schema_fold.of_declarations
          [ Edm.Entity_type.root ~name:"P" ~key:[ "Id" ] [ ("Id", D.Int) ]; derived "B" "P" [ ("X", D.Int); ("Y", D.String) ];
            derived "A" "P" [ ("X", D.String) ]; derived "A1" "A" [ ("Y", D.Int) ] ]
          ~sets:[ ("Ps", "P") ] []));
  same "customer" (client_of (Workload.Customer.generate ()));
  same "chain-50" (client_of (Workload.Chain.generate ~size:50));
  List.iter
    (fun seed -> same (Printf.sprintf "random %d" seed) (client_of (Workload.Random_model.generate ~seed ())))
    (List.init 10 (fun i -> i + 1))

(* Malformed declarations: the bulk builder refuses them with the fold's
   message, and names the declaration at fault. *)
let test_bulk_refuses_as_fold () =
  let types = Edm.Schema.types client and sets = Edm.Schema.entity_sets client in
  let assocs = Edm.Schema.associations client in
  let derived name parent declared = Edm.Entity_type.derived ~name ~parent declared in
  let person = Option.get (Edm.Schema.find_type client "Person") in
  let supports = Option.get (Edm.Schema.find_association client "Supports") in
  List.iter
    (fun (what, (types, sets, assocs), decl) ->
      match (Edm.Schema.of_declarations types ~sets assocs, Schema_fold.of_declarations types ~sets assocs) with
      | Error (d, m), Error m' ->
          check Alcotest.string (what ^ ": message") m' m;
          checkb (what ^ ": declaration") true (d = decl)
      | Ok _, _ -> Alcotest.failf "%s: the bulk builder accepts it" what
      | _, Ok _ -> Alcotest.failf "%s: the fold accepts it" what)
    (let n = List.length types and ns = List.length sets and na = List.length assocs in
     let root name = Edm.Entity_type.root ~name ~key:[ "Id" ] [ ("Id", D.Int) ] in
     [ ("an unknown parent", (types @ [ derived "Z" "Nope" [] ], sets, assocs), Edm.Schema.Type n);
       ("a parent cycle", (types @ [ derived "A" "B" []; derived "B" "A" [] ], sets, assocs), Edm.Schema.Type n);
       ("a shadowing attribute", (types @ [ derived "S" "Employee" [ ("Name", D.String) ] ], sets, assocs),
        Edm.Schema.Type n);
       ("a type declared twice", (types @ [ derived "Customer" "Person" [] ], sets, assocs), Edm.Schema.Type n);
       (* The walk reaches the derived [X] under [A] before the root [X]
          declared above it, so the root is the one refused. *)
       ("a root before its derived namesake",
        ([ root "A"; root "X"; derived "X" "A" [ ("Y", D.Int) ] ], [ ("As", "A"); ("Xs", "X") ], []),
        Edm.Schema.Type 1);
       ("a root without a set", (types @ [ { person with name = "Q" } ], sets, assocs), Edm.Schema.Type n);
       ("a root's second set", (types, sets @ [ ("Ps2", "Person") ], assocs), Edm.Schema.Set ns);
       ("a set over a derived type", (types, sets @ [ ("Cs", "Customer") ], assocs), Edm.Schema.Set ns);
       ("an unknown endpoint", (types, sets, assocs @ [ { supports with name = "R"; end2 = "Nope" } ]),
        Edm.Schema.Association na);
       ("an association declared twice", (types, sets, assocs @ assocs), Edm.Schema.Association na) ])

let sample = Workload.Paper_example.sample_client

let test_instance_conforms () =
  check_ok "sample conforms" (Edm.Instance.conforms client sample);
  let bad_attrs =
    Edm.Instance.add_entity ~set:"Persons"
      (Edm.Instance.entity ~etype:"Person" [ ("Id", V.Int 99) ])
      Edm.Instance.empty
  in
  check_error "missing attribute" (Edm.Instance.conforms client bad_attrs);
  let bad_domain =
    Edm.Instance.add_entity ~set:"Persons"
      (Edm.Instance.entity ~etype:"Person" [ ("Id", V.Int 1); ("Name", V.Int 5) ])
      Edm.Instance.empty
  in
  check_error "domain violation" (Edm.Instance.conforms client bad_domain);
  let dup_key =
    Edm.Instance.empty
    |> Edm.Instance.add_entity ~set:"Persons"
         (Edm.Instance.entity ~etype:"Person" [ ("Id", V.Int 1); ("Name", V.String "a") ])
    |> Edm.Instance.add_entity ~set:"Persons"
         (Edm.Instance.entity ~etype:"Employee"
            [ ("Id", V.Int 1); ("Name", V.String "b"); ("Department", V.String "d") ])
  in
  check_error "duplicate key across types" (Edm.Instance.conforms client dup_key);
  let null_key =
    Edm.Instance.add_entity ~set:"Persons"
      (Edm.Instance.entity ~etype:"Person" [ ("Id", V.Null); ("Name", V.String "a") ])
      Edm.Instance.empty
  in
  check_error "null key" (Edm.Instance.conforms client null_key)

let test_instance_links () =
  let dangling =
    Edm.Instance.add_link ~assoc:"Supports"
      (row [ ("Customer.Id", V.Int 5); ("Employee.Id", V.Int 42) ])
      sample
  in
  check_error "dangling employee end" (Edm.Instance.conforms client dangling);
  (* Multiplicity 0..1 on the employee side: one customer, two employees. *)
  let twice =
    sample
    |> Edm.Instance.add_link ~assoc:"Supports"
         (row [ ("Customer.Id", V.Int 5); ("Employee.Id", V.Int 3) ])
  in
  check_error "customer supported twice" (Edm.Instance.conforms client twice);
  (* The many side is unconstrained: two customers, same employee. *)
  let shared =
    sample
    |> Edm.Instance.add_link ~assoc:"Supports"
         (row [ ("Customer.Id", V.Int 6); ("Employee.Id", V.Int 4) ])
  in
  check_ok "many side unconstrained" (Edm.Instance.conforms client shared)

let test_restrict_new_components () =
  let old = Workload.Paper_example.stage2.env.Query.Env.client in
  let restricted = restrict_new_components ~old_schema:old sample in
  checkb "customers dropped" true
    (List.for_all
       (fun (e : Edm.Instance.entity) -> e.etype <> "Customer")
       (Edm.Instance.entities restricted ~set:"Persons"));
  checkb "links dropped" true (Edm.Instance.links restricted ~assoc:"Supports" = []);
  check Alcotest.int "persons and employees kept" 4
    (List.length (Edm.Instance.entities restricted ~set:"Persons"))

(* The child and attribute indexes under random evolution: after every
   operation of a random sequence of [add_root], [add_derived] (declaring
   attributes from a small pool, so sibling types share names with
   different domains), [remove_type] (alone and leaf first over a subtree), [reparent],
   [add_attribute], [remove_attribute] and [widen_attribute] (refused ones
   included), every hierarchy accessor agrees with {!Schema_walk}'s
   recomputation, and the schema stays well formed. *)
let prop_child_index =
  let gen_op =
    QCheck.Gen.(
      triple
        (frequency
           [ (1, return 0); (4, return 1); (1, return 2); (1, return 3); (2, return 4); (1, return 5);
             (1, return 6); (1, return 7) ])
        (int_bound 1000) (int_bound 1000))
  in
  qtest "child index matches a recomputation" ~count:200
    (QCheck.make ~print:QCheck.Print.(list (triple int int int)) (QCheck.Gen.list_size (QCheck.Gen.int_range 1 40) gen_op))
    (fun ops ->
      let attribute j = ([| "A"; "B"; "C" |].(j / 3 mod 3), if j mod 2 = 0 then D.Int else D.String) in
      let pick s i =
        let names = List.map (fun (e : Edm.Entity_type.t) -> e.name) (Edm.Schema.types s) in
        List.nth names (i mod List.length names)
      in
      let step (s, fresh) (kind, i, j) =
        let name = Printf.sprintf "T%02d" fresh in
        let r =
          match kind with
          | 0 ->
              Edm.Schema.add_root ~set:(name ^ "s")
                (Edm.Entity_type.root ~name ~key:[ name ^ "Id" ] [ (name ^ "Id", D.Int) ]) s
          | 1 ->
              let declared = if j mod 3 = 0 then [] else [ attribute j ] in
              Edm.Schema.add_derived (Edm.Entity_type.derived ~name ~parent:(pick s i) declared) s
          | 2 -> Edm.Schema.remove_type (pick s i) s
          | 3 -> remove_leaf_first (pick s i) s
          | 4 -> Edm.Schema.reparent ~etype:(pick s i) ~parent:(pick s j) s
          | 5 -> Edm.Schema.add_attribute ~etype:(pick s i) (attribute j) s
          | 6 -> Edm.Schema.remove_attribute ~etype:(pick s i) (fst (attribute j)) s
          | _ -> Edm.Schema.widen_attribute ~etype:(pick s i) (fst (attribute j)) D.Decimal s
        in
        let s = match r with Ok s' when Edm.Schema.types s' <> [] -> s' | _ -> s in
        Schema_walk.check (Printf.sprintf "after op %d" fresh) s;
        check_rebuilds_client (Printf.sprintf "after op %d" fresh) s;
        (s, fresh + 1)
      in
      let seed =
        ok_exn
          (Edm.Schema.add_root ~set:"Rs"
             (Edm.Entity_type.root ~name:"R" ~key:[ "RId" ] [ ("RId", D.Int) ])
             Edm.Schema.empty)
      in
      ignore (List.fold_left step (seed, 0) ops);
      true)

(* The endpoint index under random association edits: on a random model,
   a random sequence of [add_association] (between random types, refused
   ones included), [remove_association] and [set_multiplicity] keeps
   [associations_on] equal to a filter over every association at every
   type ({!Schema_walk.check_endpoints}). *)
let prop_endpoint_index =
  let gen_op = QCheck.Gen.(triple (int_bound 2) (int_bound 1000) (int_bound 1000)) in
  qtest "endpoint index matches the association filter" ~count:100
    (QCheck.make
       ~print:QCheck.Print.(pair int (list (triple int int int)))
       QCheck.Gen.(pair (int_range 1 60) (list_size (int_range 1 30) gen_op)))
    (fun (seed, ops) ->
      let env, _ = Workload.Random_model.generate ~seed () in
      let pick l i = List.nth l (i mod List.length l) in
      let step (s, fresh) (kind, i, j) =
        let types = List.map (fun (e : Edm.Entity_type.t) -> e.name) (Edm.Schema.types s) in
        let assocs = List.map (fun (a : Edm.Association.t) -> a.name) (Edm.Schema.associations s) in
        let r =
          match kind, assocs with
          | 0, _ | _, [] ->
              Edm.Schema.add_association
                { Edm.Association.name = Printf.sprintf "Rnd%d" fresh; end1 = pick types i;
                  end2 = pick types j; mult1 = Edm.Association.Many; mult2 = Edm.Association.Zero_or_one }
                s
          | 1, _ -> Edm.Schema.remove_association (pick assocs i) s
          | _ -> Edm.Schema.set_multiplicity ~assoc:(pick assocs i) (Edm.Association.One, Edm.Association.Many) s
        in
        let s = Result.value r ~default:s in
        Schema_walk.check_endpoints (Printf.sprintf "seed %d, op %d" seed fresh) s;
        (s, fresh + 1)
      in
      Schema_walk.check_endpoints (Printf.sprintf "seed %d" seed) env.Query.Env.client;
      ignore (List.fold_left step (env.Query.Env.client, 0) ops);
      true)

let prop_conforming_generated =
  qtest "generator produces conforming instances" ~count:200 arb_client_instance (fun inst ->
      match Edm.Instance.conforms client inst with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "non-conforming: %s" e)

let () =
  Alcotest.run "edm"
    [
      ( "schema",
        [
          Alcotest.test_case "hierarchy" `Quick test_hierarchy;
          Alcotest.test_case "strictly_between" `Quick test_strictly_between;
          Alcotest.test_case "attributes" `Quick test_attributes;
          Alcotest.test_case "sets and associations" `Quick test_sets_and_assocs;
          Alcotest.test_case "construction errors" `Quick test_construction_errors;
          Alcotest.test_case "evolution" `Quick test_evolution;
          Alcotest.test_case "reparent" `Quick test_reparent;
          Alcotest.test_case "well-formed" `Quick test_well_formed;
          Alcotest.test_case "bulk build matches the add_* fold" `Quick test_bulk_matches_fold;
          Alcotest.test_case "bulk build refuses as the fold" `Quick test_bulk_refuses_as_fold;
          prop_child_index;
          prop_endpoint_index;
        ] );
      ( "instance",
        [
          Alcotest.test_case "conforms" `Quick test_instance_conforms;
          Alcotest.test_case "links" `Quick test_instance_links;
          Alcotest.test_case "restrict to old schema" `Quick test_restrict_new_components;
          prop_conforming_generated;
        ] );
    ]
