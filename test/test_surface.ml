open Common
module P = Workload.Paper_example

let paper_model_text =
  {|
// The running example of the paper (Figs. 1 and 5), stage 4.
client {
  set Persons of Person;
  type Person {
    key Id : int;
    Name : string;
  }
  type Employee : Person {
    Department : string;
  }
  type Customer : Person {
    CredScore : int;
    BillAddr : string;
  }
  assoc Supports between Customer and Employee multiplicity * to 0..1;
}

store {
  table HR {
    Id : int not null;
    Name : string;
    key (Id);
  }
  table Emp {
    Id : int not null;
    Dept : string;
    key (Id);
    fk (Id) references HR (Id);
  }
  table Client {
    Cid : int not null;
    Eid : int;
    Name : string;
    Score : int;
    Addr : string;
    key (Cid);
    fk (Eid) references Emp (Id);
  }
}

mapping {
  fragment Persons where is of only Person or is of Employee
    maps (Id -> Id, Name -> Name) to HR;
  fragment Persons where is of Employee
    maps (Id -> Id, Department -> Dept) to Emp;
  fragment Persons where is of Customer
    maps (Id -> Cid, Name -> Name, CredScore -> Score, BillAddr -> Addr) to Client;
  fragment Supports maps (Customer.Id -> Cid, Employee.Id -> Eid)
    to Client where Eid is not null;
}
|}

let parse_paper () =
  ok_exn (Surface.Parser.model paper_model_text)

let test_parse_paper_model () =
  let env, frags = parse_paper () in
  checkb "client schema equals the fixture" true
    (Edm.Schema.equal env.Query.Env.client P.stage4.P.env.Query.Env.client);
  checkb "store schema equals the fixture" true
    (Relational.Schema.equal env.Query.Env.store P.stage4.P.env.Query.Env.store);
  checkb "fragments equal Σ4" true (Mapping.Fragments.equal frags P.stage4.P.fragments)

let test_model_print_parse_roundtrip () =
  List.iter
    (fun (env, frags) ->
      let text = Surface.Print_dsl.model env frags in
      let env', frags' = ok_exn (Surface.Parser.model text) in
      checkb "client roundtrips" true (Edm.Schema.equal env.Query.Env.client env'.Query.Env.client);
      checkb "store roundtrips" true
        (Relational.Schema.equal env.Query.Env.store env'.Query.Env.store);
      checkb "fragments roundtrip" true (Mapping.Fragments.equal frags frags'))
    [
      (P.stage4.P.env, P.stage4.P.fragments);
      Workload.Hub_rim.generate ~n:2 ~m:2 ~style:`Tph;
      Workload.Chain.generate ~size:5;
    ]

let smo_script_text =
  {|
add entity Employee : Person { Department : string; }
  alpha (Id, Department) reference Person
  to table Emp {
    Id : int not null;
    Dept : string;
    key (Id);
    fk (Id) references HR (Id);
  }
  map (Id -> Id, Department -> Dept);

add entity Customer : Person { CredScore : int; BillAddr : string; }
  alpha (Id, Name, CredScore, BillAddr) reference nil
  to table Client {
    Cid : int not null;
    Eid : int;
    Name : string;
    Score : int;
    Addr : string;
    key (Cid);
    fk (Eid) references Emp (Id);
  }
  map (Id -> Cid, Name -> Name, CredScore -> Score, BillAddr -> Addr);

add assoc Supports between Customer and Employee multiplicity * to 0..1
  fk in Client map (Customer.Id -> Cid, Employee.Id -> Eid);
|}

let test_smo_script () =
  let smos = ok_exn (Surface.Parser.script smo_script_text) in
  check Alcotest.int "three SMOs" 3 (List.length smos);
  let st = ok_exn (Core.State.bootstrap P.stage1.P.env P.stage1.P.fragments) in
  let st = ok_v (Core.Engine.apply_all st smos) in
  checkb "script reproduces Σ4" true
    (Mapping.Fragments.equal st.Core.State.fragments P.stage4.P.fragments);
  checkb "script reproduces the stage-4 schema" true
    (Edm.Schema.equal st.Core.State.env.Query.Env.client P.stage4.P.env.Query.Env.client);
  checkb "roundtrips" true (ok_exn (roundtrip_ok st P.sample_client))

let test_smo_script_other_forms () =
  let text =
    {|
add entity Book : Item { Pages : int; }
  tph in Inventory discriminator Disc = "book"
  map (Id -> Id, Label -> Label, Pages -> Pages);

add entity Citizen : Human { Age : int not null; }
  partitions reference Human
  partition (Hid, Age) where Age >= 18
    to table Adult { Hid : int not null; Age : int; key (Hid); }
    map (Hid -> Hid, Age -> Age)
  partition (Hid, Age) where Age < 18
    to table Young { Hid : int not null; Age : int; key (Hid); }
    map (Hid -> Hid, Age -> Age);

add assoc Tagged between Content and Author multiplicity * to *
  jt to table Tags { Cid : int not null; Aid : int not null; key (Cid, Aid); }
  map (Content.Id -> Cid, Author.Aid -> Aid);

add property Employee.Level : int in Emp column Level;
add property Person.Nick : string
  to table Nicks { Id : int not null; Nick : string; key (Id); }
  map (Id -> Id, Nick -> Nick);
drop entity Customer;
drop assoc Supports;
drop property Employee.Level;
widen property Customer.CredScore : decimal;
modify assoc Supports multiplicity * to *;
refactor Heads;
|}
  in
  let smos = ok_exn (Surface.Parser.script text) in
  check
    (Alcotest.list Alcotest.string)
    "labels"
    [ "AE-TPH"; "AEP-2p"; "AA-JT"; "AP"; "AP"; "DROP"; "DROP-A"; "DROP-P"; "WIDEN"; "MULT";
      "REFACTOR" ]
    (List.map Core.Smo.name smos)

let test_parse_errors () =
  let bad msg text =
    match Surface.Parser.model text with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" msg
    | Error e -> checkb (msg ^ " has position info") true (contains ~sub:"line" e)
  in
  bad "unclosed brace" "client { set X of Y;";
  bad "bad keyword" "klient { }";
  bad "missing key" "store { table T { Id : int; } }";
  bad "bad domain" "client { type T { key Id : quux; } }";
  List.iter
    (fun text ->
      match Surface.Parser.condition text with
      | Ok _ -> Alcotest.failf "expected a condition error for %S" text
      | Error e -> checkb "condition error" true (contains ~sub:"line" e))
    [ "Age >= "; "Age = 99999999999999999999" ];
  match Surface.Parser.condition "Age >= 18 and (Gender = \"M\" or Gender = \"F\")" with
  | Ok c ->
      checkb "condition parsed" true
        (Query.Cond.equal c
           (Query.Cond.And
              ( Query.Cond.Cmp ("Age", Query.Cond.Ge, V.Int 18),
                Query.Cond.Or
                  ( Query.Cond.Cmp ("Gender", Query.Cond.Eq, V.String "M"),
                    Query.Cond.Cmp ("Gender", Query.Cond.Eq, V.String "F") ) )))
  | Error e -> Alcotest.failf "condition should parse: %s" e

(* [gen_cond] with comparisons against literals the printer must escape or
   spell exactly: negative numbers, decimals that [%g] rounds or writes
   with an exponent, and strings with quotes, backslashes, control and
   non-ASCII bytes. *)
let gen_dsl_cond =
  QCheck.Gen.(
    let literal =
      oneof
        [
          map (fun i -> V.Int i) int;
          map (fun i -> V.Int (-i)) small_nat;
          map (fun f -> V.Decimal f)
            (oneofl [ -2.5; 1234567.5; 123456.75; 0.1 +. 0.2; 1e20; -1e-7; -0.0 ]);
          map (fun f -> V.Decimal f) (float_bound_inclusive 1e12);
          map (fun f -> V.Decimal (if Float.is_finite f then f else 1.5)) float;
          map (fun s -> V.String s)
            (oneofl [ "café"; "say \"hi\""; "back\\slash"; "tab\there"; "two\nlines" ]);
          map (fun s -> V.String s) (string_size ~gen:char (int_range 0 8));
          map (fun b -> V.Bool b) bool;
        ]
    in
    let cmp =
      map2 (fun op v -> C.Cmp ("A", op, v)) (oneofl [ C.Eq; C.Neq; C.Lt; C.Le; C.Gt; C.Ge ]) literal
    in
    frequency
      [
        (1, gen_cond);
        (2, cmp);
        (2, map2 (fun a b -> C.And (a, b)) cmp gen_cond);
        (1, map2 (fun a b -> C.Or (a, b)) cmp cmp);
      ])

let prop_cond_print_parse =
  qtest "conditions roundtrip through the DSL" ~count:300
    (QCheck.make ~print:C.show gen_dsl_cond)
    (fun c ->
      let text = Surface.Print_dsl.cond c in
      match Surface.Parser.condition text with
      | Ok c' ->
          Query.Cond.equal c c'
          || QCheck.Test.fail_reportf "%s reparsed as %s" (Query.Cond.show c) (Query.Cond.show c')
      | Error e -> QCheck.Test.fail_reportf "%s failed to reparse %s: %s" (Query.Cond.show c) text e)

let test_smo_print_parse_roundtrip () =
  (* Printing an SMO as a script statement and reparsing it reaches a
     fixpoint (idempotent rendering), across every constructor. *)
  let chain_smos = List.map snd (Workload.Chain.smo_suite ~at:3) in
  let extra =
    [
      Core.Smo.Drop_entity { etype = "X" };
      Core.Smo.Drop_association { assoc = "A" };
      Core.Smo.Drop_property { etype = "X"; attr = "a" };
      Core.Smo.Widen_attribute { etype = "X"; attr = "a"; domain = D.Decimal };
      Core.Smo.Set_multiplicity
        { assoc = "A"; mult = (Edm.Association.One, Edm.Association.Many) };
      Core.Smo.Refactor { assoc = "A" };
    ]
  in
  List.iter
    (fun smo ->
      let text = Surface.Print_dsl.smo smo in
      match Surface.Parser.script text with
      | Error e -> Alcotest.failf "SMO %s failed to reparse: %s\n%s" (Core.Smo.show smo) e text
      | Ok [ smo' ] ->
          check Alcotest.string
            ("fixpoint for " ^ Core.Smo.name smo)
            text (Surface.Print_dsl.smo smo')
      | Ok l -> Alcotest.failf "expected one SMO, got %d" (List.length l))
    (chain_smos @ extra)

let test_diff_script_replays () =
  (* The MoDEF flow through the surface: infer a diff, print it, reparse it,
     apply it — same result as applying the inferred SMOs directly. *)
  let st =
    ok_exn
      (Core.State.bootstrap Workload.Paper_example.stage2.P.env
         Workload.Paper_example.stage2.P.fragments)
  in
  let target =
    ok_exn
      (Edm.Schema.add_derived
         (Edm.Entity_type.derived ~name:"Manager" ~parent:"Employee" [ ("Grade", D.Int) ])
         st.Core.State.env.Query.Env.client)
  in
  let smos = ok_exn (Modef.Diff.infer st ~target) in
  let text = Surface.Print_dsl.script smos in
  let smos' = ok_exn (Surface.Parser.script text) in
  let st_direct = ok_v (Core.Engine.apply_all st smos) in
  let st_replayed = ok_v (Core.Engine.apply_all st smos') in
  checkb "replayed script reaches the same schema" true
    (Edm.Schema.equal st_direct.Core.State.env.Query.Env.client
       st_replayed.Core.State.env.Query.Env.client);
  checkb "replayed script reaches the same fragments" true
    (Mapping.Fragments.equal st_direct.Core.State.fragments st_replayed.Core.State.fragments)

(* -- sexp ------------------------------------------------------------------------ *)

(* Atoms are arbitrary byte strings, half of them over the bytes the reader
   treats specially, so delimiters, escapes and CRs are common. *)
let gen_atom =
  QCheck.Gen.(
    map Sexp.atom
      (frequency
         [
           (1, string_size ~gen:char (int_bound 8));
           (1, string_size ~gen:(oneofl [ ' '; '\t'; '\n'; '\r'; '('; ')'; '"'; ';'; '\\'; 'n'; '#'; 'a' ]) (int_bound 8));
         ]))

let rec gen_sexp n =
  QCheck.Gen.(
    if n <= 1 then gen_atom
    else
      frequency
        [ (1, gen_atom); (2, map Sexp.list (list_size (int_range 0 4) (gen_sexp (n / 2)))) ])

let prop_sexp_roundtrip =
  qtest "s-expressions roundtrip" ~count:300
    (QCheck.make ~print:Sexp.to_string (gen_sexp 16))
    (fun s ->
      match Sexp.of_string (Sexp.to_string s) with
      | Ok s' -> Sexp.equal s s'
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e)

(* A CR is whitespace to the reader, so an atom holding one must be quoted:
   [(str a\rb)] used to read back as [(str a b)]. *)
let test_sexp_cr () =
  let s = Sexp.(list [ atom "str"; atom "a\rb" ]) in
  checkb "an atom with a CR roundtrips" true
    (Sexp.of_string (Sexp.to_string s) = Ok s)

(* The indexing reader against the character-at-a-time one it replaced
   ({!Sexp_tree}): the same trees or the same error message. *)
let same_reading what text =
  match (Sexp.of_string_many text, Sexp_tree.of_string_many text) with
  | Ok a, Ok b -> if not (List.equal Sexp.equal a b) then Alcotest.failf "%s: different trees" what
  | Error a, Error b -> check Alcotest.string (what ^ ": same error") b a
  | Ok _, Error e -> Alcotest.failf "%s: only the oracle fails: %s" what e
  | Error e, Ok _ -> Alcotest.failf "%s: only the reader fails: %s" what e

let mutations ~seed ~count text f =
  let rng = Random.State.make [| seed; String.length text |] in
  for _ = 1 to count do
    let b = Bytes.of_string text in
    let pos = Random.State.int rng (Bytes.length b) in
    let byte = Char.chr (Random.State.int rng 256) in
    Bytes.set b pos byte;
    f (Printf.sprintf "byte %d set to %C" pos byte) (Bytes.to_string b)
  done

let prop_reader_matches_oracle =
  qtest "reader matches the oracle on printed sexps" ~count:300
    (QCheck.make ~print:Sexp.to_string (gen_sexp 16))
    (fun s ->
      let text = Sexp.to_string s in
      same_reading "printed" text;
      same_reading "truncated" (String.sub text 0 (String.length text / 2));
      true)

(* -- state save/load ---------------------------------------------------------------- *)

let test_state_roundtrip () =
  let st =
    ok_exn (Core.State.bootstrap P.stage4.P.env P.stage4.P.fragments)
  in
  let text = Surface.State_io.save st in
  let st' = ok_exn (Surface.State_io.load text) in
  checkb "client schema survives" true
    (Edm.Schema.equal st.Core.State.env.Query.Env.client st'.Core.State.env.Query.Env.client);
  checkb "store schema survives" true
    (Relational.Schema.equal st.Core.State.env.Query.Env.store st'.Core.State.env.Query.Env.store);
  checkb "fragments survive" true
    (Mapping.Fragments.equal st.Core.State.fragments st'.Core.State.fragments);
  List.iter
    (fun (ty, v) ->
      match Query.View.entity_view st'.Core.State.query_views ty with
      | Some v' -> checkb ("query view " ^ ty) true (Query.View.equal v v')
      | None -> Alcotest.failf "query view %s lost" ty)
    (Query.View.entity_view_bindings st.Core.State.query_views);
  List.iter
    (fun (t, q) ->
      match Query.View.table_view st'.Core.State.update_views t with
      | Some q' -> checkb ("update view " ^ t) true (Query.Algebra.equal q q')
      | None -> Alcotest.failf "update view %s lost" t)
    (Query.View.update_view_bindings st.Core.State.update_views);
  (* The reloaded state keeps compiling incrementally. *)
  let smo =
    Core.Smo.Add_property
      { etype = "Employee"; attr = ("Level", D.Int);
        target = Core.Add_property.To_existing_table { table = "Emp"; column = "Level" } }
  in
  checkb "reloaded state evolves" true (Result.is_ok (Core.Engine.apply st' smo))

let test_state_io_views_after_evolution () =
  (* Save after incremental evolution (LOJ/UNION-shaped views). *)
  let env, frags = Workload.Chain.generate ~size:5 in
  let st = Core.State.of_compiled env frags (ok_exn (Fullc.Compile.compile env frags)) in
  let st =
    List.fold_left
      (fun st (label, smo) ->
        if label = "AE-TPC-fk" then st
        else match Core.Engine.apply st smo with Ok st' -> st' | Error _ -> st)
      st
      (Workload.Chain.smo_suite ~at:2)
  in
  let st' = ok_exn (Surface.State_io.load (Surface.State_io.save st)) in
  match
    Roundtrip.Check.roundtrips st'.Core.State.env st'.Core.State.query_views
      st'.Core.State.update_views ~samples:15 ()
  with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "reloaded views broke roundtripping: %a" Roundtrip.Check.pp_failure f

(* -- shared-term documents ------------------------------------------------------------ *)

let save = Surface.State_io.save
let load = Surface.State_io.load

let chain5_evolved =
  lazy
    (let env, frags = Workload.Chain.generate ~size:5 in
     let st = Core.State.of_compiled env frags (ok_exn (Fullc.Compile.compile env frags)) in
     List.fold_left
       (fun st (label, smo) ->
         if label = "AE-TPC-fk" then st
         else match Core.Engine.apply st smo with Ok st' -> st' | Error _ -> st)
       st
       (Workload.Chain.smo_suite ~at:2))

let paper_state = lazy (ok_exn (Core.State.bootstrap P.stage4.P.env P.stage4.P.fragments))

(* The customer model's views, as [imcc compile -m customer --no-validate]
   builds them. *)
let customer_state =
  lazy
    (let env, frags = Workload.Customer.generate () in
     Core.State.of_compiled env frags
       (ok_exn (Fullc.Compile.compile ~validate:false env frags)))

(* The same document with every back-reference replaced by its entry and the
   term table dropped: the tree form, where every term is inline. *)
let inline_terms text =
  match ok_exn (Sexp.of_string text) with
  | Sexp.List
      [ state; client; store; Sexp.List (_ :: entries); frags; qv; uv ] ->
      let table = Array.of_list entries in
      let rec expand = function
        | Sexp.Atom a when String.length a > 1 && a.[0] = '#' ->
            expand table.(int_of_string (String.sub a 1 (String.length a - 1)))
        | Sexp.Atom _ as a -> a
        | Sexp.List l -> Sexp.List (List.map expand l)
      in
      Sexp.to_string
        (Sexp.List [ state; client; store; expand frags; expand qv; expand uv ])
  | _ -> Alcotest.fail "saved state has no term table"

let test_tree_form_loads () =
  List.iter
    (fun (name, st) ->
      let text = save (Lazy.force st) in
      let tree = inline_terms text in
      checkb (name ^ ": the tree form has no references") false (String.contains tree '#');
      match load tree with
      | Ok st' -> checkb (name ^ ": tree form loads to the same state") true (save st' = text)
      | Error e -> Alcotest.failf "%s: tree form does not load: %s" name e)
    [ ("paper", paper_state); ("chain-5", chain5_evolved) ]

let test_canonical_form () =
  List.iter
    (fun (name, st) ->
      let st = Lazy.force st in
      let unshared : Core.State.t =
        Marshal.from_string (Marshal.to_string st [ Marshal.No_sharing ]) 0
      in
      checkb (name ^ ": an unshared copy saves to the same text") true (save unshared = save st))
    [ ("paper", paper_state); ("chain-5", chain5_evolved); ("customer", customer_state) ]

(* Documents written by an earlier build of [imcc]: [compile -m paper
   --no-validate] (three [foj]), [compile -f
   examples/models/paper_stage1.imc] then [evolve --script
   examples/models/paper_changes.smo] ([join], [loj] and [union]), and that
   state evolved by [examples/models/paper_drops.smo].  The
   encoder and its tree-walk oracle change together, so only a committed
   file pins the format itself.  CI also rebuilds them with the CLI and
   [cmp]s them with these files, so they must track the current build's
   output: an intended change of that output regenerates them, and from
   then on they pin the new output's format. *)
let states_dir = List.find Sys.file_exists [ "states"; "test/states" ]

let test_committed_documents () =
  List.iter
    (fun file ->
      let text = In_channel.with_open_bin (Filename.concat states_dir file) In_channel.input_all in
      let st = ok_exn (load text) in
      Schema_walk.check file st.Core.State.env.Query.Env.client;
      checkb (file ^ ": save (load t) = t") true (save st = text))
    [ "paper.imcs"; "paper_evolved.imcs"; "paper_dropped.imcs" ]

let test_customer_roundtrip () =
  let st = Lazy.force customer_state in
  let text = save st in
  checkb "customer state saves to under 1 MB" true (String.length text < 1_000_000);
  let st' = ok_exn (load text) in
  checkb "save (load t) = t" true (save st' = text);
  List.iter
    (fun (ty, v) ->
      match Query.View.entity_view st'.Core.State.query_views ty with
      | Some v' -> checkb ("query view " ^ ty) true (Query.View.equal v v')
      | None -> Alcotest.failf "query view %s lost" ty)
    (Query.View.entity_view_bindings st.Core.State.query_views);
  let label, smo = List.hd (Workload.Customer.smo_suite ()) in
  let evolved = ok_v (Core.Engine.apply st' smo) in
  let text' = save evolved in
  checkb (label ^ ": save (load t) = t after the SMO") true (save (ok_exn (load text')) = text')

let test_loaded_state_is_shared () =
  let st = Lazy.force customer_state in
  let loaded = ok_exn (load (save st)) in
  let words x = Obj.reachable_words (Obj.repr x) in
  let compiled = words st and reloaded = words loaded in
  if reloaded > 2 * compiled then
    Alcotest.failf "loaded state has %d words, the compiled one %d" reloaded compiled

(* Hand-written documents around a two-entry table whose entry 0 is [true]. *)
let doc ?(terms = "true (select #0 (scan (table T)))") ?(frags = "") ?(views = "") ?(updates = "") () =
  Printf.sprintf "(state (client) (store) (terms %s) (fragments %s) (query_views %s) (update_views %s))"
    terms frags views updates

let test_bad_references () =
  let view q c = Printf.sprintf "(for_entity E (view %s %s))" q c in
  checkb "a well-formed table loads" true
    (Result.is_ok (load (doc ~views:(view "#1" "(entity E (Id))") ())));
  List.iter
    (fun (what, text) ->
      match load text with
      | Ok _ -> Alcotest.failf "%s: loaded" what
      | Error _ -> ())
    [
      ("forward reference", doc ~terms:"(and #1 #0) true" ());
      ("self reference", doc ~terms:"(and #0 #0)" ());
      ("dangling reference in a view", doc ~views:(view "#7" "(entity E (Id))") ());
      ("out-of-range reference", doc ~views:(view "#2" "(entity E (Id))") ());
      ("overflowing reference", doc ~views:(view "#99999999999999999999" "(entity E (Id))") ());
      ("negative reference", doc ~views:(view "#-1" "(entity E (Id))") ());
      ("malformed reference", doc ~views:(view "#1x" "(entity E (Id))") ());
      ("empty reference", doc ~views:(view "#" "(entity E (Id))") ());
      ("condition used as a query", doc ~views:(view "#0" "(entity E (Id))") ());
      ("query used as a condition", doc ~terms:"true (scan (set S)) (and #0 #1)" ());
      ("query used as a constructor", doc ~views:(view "#1" "#1") ());
      ("query in a fragment condition",
       doc ~frags:"(frag (set S) #1 ((Id Id)) T #0)" ());
      ("unknown term", doc ~terms:"true (nand #0 #0)" ());
    ]

(* [load] answers [text] with an [Error] that names an offset, and does
   not raise. *)
let check_load_error what text =
  match load text with
  | Ok _ -> Alcotest.failf "%s: loaded" what
  | Error e ->
      checkb (what ^ ": the error names an offset: " ^ e) true (String.starts_with ~prefix:"at offset " e)
  | exception ex -> Alcotest.failf "%s: load raised %s" what (Printexc.to_string ex)

(* An update binding is [(for_table T #q)].  A binding in the form with a
   constructor, [(for_table T (view #q #c))], is an [Error]. *)
let test_update_binding_form () =
  let terms = "true (select #0 (scan (table T))) (entity E (Id))" in
  let update b = doc ~terms ~updates:(Printf.sprintf "(for_table T %s)" b) () in
  checkb "a query reference loads" true (Result.is_ok (load (update "#1")));
  check_load_error "an update binding with a constructor" (update "(view #1 #2)")

(* A constructor only builds entities and an association view is a bare
   query, so neither a [(tuple ..)] leaf in an entity view's constructor
   nor an association binding with a constructor,
   [(for_assoc A (view #q #c))], loads. *)
let test_no_tuple_constructors () =
  let terms = "true (select #0 (scan (table T))) (entity E (Id))" in
  let assoc b = doc ~terms ~views:(Printf.sprintf "(for_assoc A %s)" b) () in
  checkb "an association query reference loads" true (Result.is_ok (load (assoc "#1")));
  check_load_error "an association binding with a constructor" (assoc "(view #1 #2)");
  check_load_error "a tuple leaf in an entity view's constructor"
    (doc ~terms:(terms ^ " (tuple (Id)) (if #0 #2 #3)") ~views:"(for_entity E (view #1 #4))" ())

(* The loader places each saved type under its parent in one walk down
   from the roots, so a type whose parent is missing, or lies on a parent
   cycle, is never placed, and the load is an [Error]. *)
let test_unresolvable_parents () =
  let client types =
    "(state (client (type P _ ((Id int)) (Id) ()) " ^ types
    ^ " (eset Ps P)) (store) (terms true) (fragments) (query_views) (update_views))"
  in
  checkb "a grandchild before its parent loads" true
    (Result.is_ok (load (client "(type D C () () ()) (type C P () () ())")));
  List.iter
    (fun (what, types) ->
      check_load_error what (client types);
      match load (client types) with
      | Error e -> checkb (what ^ ": " ^ e) true (contains ~sub:"unresolvable parents" e)
      | Ok _ -> ())
    [ ("a missing parent", "(type C Q () () ())"); ("a parent cycle", "(type A B () () ()) (type B A () () ())");
      ("a type its own parent", "(type A A () () ())") ]

(* The model-file counterpart: a type whose parent is missing or lies on a
   parent cycle is an [Error] that names it. *)
let test_dsl_unresolvable_parents () =
  let client types = "client { set Ps of P; type P { key Id : int; } " ^ types ^ " }" in
  checkb "a grandchild before its parent builds" true
    (Result.is_ok (Surface.Parser.client (client "type D : C { } type C : P { }")));
  List.iter
    (fun (what, types, names) ->
      match Surface.Parser.client (client types) with
      | Ok _ -> Alcotest.failf "%s: built" what
      | Error e ->
          checkb (what ^ ": " ^ e) true (String.ends_with ~suffix:("unresolvable parents: " ^ names) e))
    [ ("a missing parent", "type C : Q { }", "C"); ("a parent cycle", "type A : B { } type B : A { }", "A, B");
      ("a type its own parent", "type A : A { }", "A") ]

(* Each entity set is rooted at a declared root and each root has one set,
   in a saved state as in a model file: a set over an unknown or a derived
   type, or a root's second set, is an [Error] that names the set. *)
let test_set_roots () =
  let saved set =
    "(state (client (type P _ ((Id int)) (Id) ()) (type C P () () ()) (eset Ps P) " ^ set
    ^ ") (store) (terms true) (fragments) (query_views) (update_views))"
  in
  let model set = "client { set Ps of P; " ^ set ^ " type P { key Id : int; } type C : P { } }" in
  checkb "a saved client loads" true (Result.is_ok (load (saved "")));
  checkb "a model's client builds" true (Result.is_ok (Surface.Parser.client (model "")));
  List.iter
    (fun (what, saved_set, model_set, name) ->
      check_load_error what (saved saved_set);
      (match load (saved saved_set) with
      | Error e -> checkb (what ^ ", saved: " ^ e) true (contains ~sub:name e)
      | Ok _ -> ());
      match Surface.Parser.client (model model_set) with
      | Ok _ -> Alcotest.failf "%s, model: built" what
      | Error e -> checkb (what ^ ", model: " ^ e) true (contains ~sub:name e))
    [ ("a set over an unknown type", "(eset Qs Q)", "set Qs of Q;", "Qs");
      ("a set over a derived type", "(eset Cs C)", "set Cs of C;", "Cs");
      ("a root's second set", "(eset Ps2 P)", "set Ps2 of P;", "Ps2") ]

(* Truncated and byte-mutated saved states: [load] answers, [Ok] or [Error],
   and never raises. *)
let prop_load_never_raises =
  let texts = lazy [| save (Lazy.force paper_state); save (Lazy.force chain5_evolved) |] in
  let damage =
    QCheck.Gen.(
      pair (int_bound 1)
        (oneof
           [
             map (fun f -> `Truncate f) (float_bound_inclusive 1.);
             map (fun (f, c) -> `Mutate (f, c)) (pair (float_bound_inclusive 1.) printable);
             map (fun f -> `Delete f) (float_bound_inclusive 1.);
           ]))
  in
  let apply text = function
    | `Truncate f -> String.sub text 0 (int_of_float (f *. float_of_int (String.length text)))
    | `Mutate (f, c) ->
        let b = Bytes.of_string text in
        Bytes.set b (min (Bytes.length b - 1) (int_of_float (f *. float_of_int (Bytes.length b)))) c;
        Bytes.to_string b
    | `Delete f ->
        let i = min (String.length text - 1) (int_of_float (f *. float_of_int (String.length text))) in
        String.sub text 0 i ^ String.sub text (i + 1) (String.length text - i - 1)
  in
  qtest "load never raises on damaged documents" ~count:500 (QCheck.make damage)
    (fun (which, d) ->
      let damaged = apply (Lazy.force texts).(which) d in
      match load damaged with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "load raised %s" (Printexc.to_string e))

(* Every prefix of each example file, and seeded one-byte mutations of it,
   through the parser: each answers [Ok] or [Error] and
   never raises.  Truncated bindings used to reach [peek] past the end of
   the token list.  [dune runtest] runs the tests from [test/] of the build
   tree, [dune exec] from the root. *)
let example_dir = List.find Sys.file_exists [ "../examples/models"; "examples/models" ]

let parse file text =
  match Filename.extension file with
  | ".imc" -> Result.map ignore (Surface.Parser.model text)
  | ".smo" -> Result.map ignore (Surface.Parser.script text)
  | ".imcd" -> Result.map ignore (Surface.Parser.data P.stage4.P.env text)
  | ".dml" -> Result.map ignore (Surface.Parser.dml P.stage4.P.env text)
  | ext -> Alcotest.failf "no reader for %s files" ext

let test_truncated_bindings () =
  List.iter
    (fun (what, r) -> checkb what true (Result.is_error r))
    [
      ("truncated dml", Result.map ignore (Surface.Parser.dml P.stage4.P.env "unlink Supports (Customer.Id"));
      ( "truncated data",
        Result.map ignore
          (Surface.Parser.data P.stage4.P.env "data { Supports: (Customer.Id = 5, Employee.Id") );
    ];
  match Surface.Parser.dml P.stage4.P.env "unlink Supports (Customer.Id 5);" with
  | Ok _ -> Alcotest.fail "missing '=' accepted"
  | Error e -> checkb ("error at the bad token: " ^ e) true (contains ~sub:"column 30" e)

(* A declaration the parser cannot build is an [Error] at its position. *)
let test_declaration_positions () =
  List.iter
    (fun (what, text, prefix) ->
      match Surface.Parser.model text with
      | Ok _ -> Alcotest.failf "%s: built" what
      | Error e -> checkb (what ^ ": " ^ e) true (String.starts_with ~prefix e))
    [
      ("a root with no key", "client {\n  set Ps of P;\n  type P { Id : int; }\n}",
       "line 3, column 8: root type P declares no key");
      ("a derived type with a key", "client { set Ps of P; type P { key Id : int; }\n type C : P { key K : int; } }",
       "line 2, column 7: derived type C must not declare key");
      ("a table keyed on an undeclared column", "store {\n  table T { Id : int; key (Nope); }\n}",
       "line 2, column 9: table T keys on undeclared column Nope");
      ("a table with no key clause", "store {\n  table T { Id : int; }\n}",
       "line 2, column 9: table T has no key clause");
    ]

let test_examples_fuzz () =
  let files =
    Sys.readdir example_dir |> Array.to_list |> List.sort String.compare
    |> List.filter (fun f -> List.mem (Filename.extension f) [ ".imc"; ".smo"; ".imcd"; ".dml" ])
  in
  checkb "example files found" true (List.length files >= 4);
  List.iter
    (fun file ->
      let text = In_channel.with_open_bin (Filename.concat example_dir file) In_channel.input_all in
      let run = parse file in
      let answers what input =
        match run input with
        | Ok () | Error _ -> ()
        | exception e -> Alcotest.failf "%s, %s: raised %s" file what (Printexc.to_string e)
      in
      answers "whole file" text;
      for i = 0 to String.length text - 1 do
        answers (Printf.sprintf "prefix of %d bytes" i) (String.sub text 0 i)
      done;
      let rng = Random.State.make [| 18; String.length text |] in
      for _ = 1 to 2000 do
        let b = Bytes.of_string text in
        let pos = Random.State.int rng (Bytes.length b) in
        let byte = Char.chr (Random.State.int rng 256) in
        Bytes.set b pos byte;
        answers (Printf.sprintf "byte %d set to %C" pos byte) (Bytes.to_string b)
      done)
    files

(* -- the oracles --------------------------------------------------------------------- *)

(* The customer state as [imcc] loads it, and that state after each SMO of
   the customer suite, each applied to the loaded state. *)
let customer_loaded = lazy (ok_exn (load (save (Lazy.force customer_state))))

let customer_suite_states =
  lazy
    (let st = Lazy.force customer_loaded in
     List.map (fun (label, smo) -> (label, ok_v (Core.Engine.apply st smo))) (Workload.Customer.smo_suite ()))

let example_texts () =
  Sys.readdir example_dir |> Array.to_list |> List.sort String.compare
  |> List.map (fun f -> (f, In_channel.with_open_bin (Filename.concat example_dir f) In_channel.input_all))

(* After a W <= 1 / W > 1 split of a Decimal W, written with Int literals,
   a Vip at W = 0.5 is stored in TLow and no query for W > 1 returns it: each
   Int literal on a Decimal attribute or column is read as the equal
   Decimal, so it is ordered by value. *)
let test_int_on_decimal () =
  let read f = In_channel.with_open_bin (Filename.concat example_dir f) In_channel.input_all in
  let env, frags = ok_exn (Surface.Parser.model (read "acct.imc")) in
  let split =
    {|add entity Vip : Acct { W : decimal not null; }
        partitions reference Acct
        partition (Id, W) where W <= 1
          to table TLow { Id : int not null; W : decimal; key (Id); fk (Id) references TAcct (Id); }
          map (Id -> Id, W -> W)
        partition (Id, W) where W > 1
          to table THigh { Id : int not null; W : decimal; key (Id); fk (Id) references TAcct (Id); }
          map (Id -> Id, W -> W);|}
  in
  let st =
    List.fold_left
      (fun st smo -> ok_v (Core.Engine.apply st smo))
      (ok_exn (Core.State.bootstrap env frags))
      (ok_exn (Surface.Parser.script split))
  in
  let env = st.Core.State.env in
  let data = {|data { Accts: Vip (Id = 1, W = 0.5); Accts: Vip (Id = 2, W = 1); }|} in
  let inst = ok_exn (Surface.Parser.data env data) in
  let delta = ok_exn (Surface.Parser.dml env "insert Accts Vip (Id = 3, W = 2);") in
  let inst = ok_exn (Dml.Delta.apply env.Query.Env.client inst delta) in
  let store = ok_exn (Query.View.apply_update_views env st.Core.State.update_views inst) in
  let ids rows = List.sort V.compare (List.map (Datum.Row.get "Id") rows) in
  let values = Alcotest.(list (testable V.pp V.equal)) in
  let table t = ids (Relational.Instance.rows store ~table:t) in
  check values "TLow holds W = 0.5 and W = 1" [ V.Int 1; V.Int 2 ] (table "TLow");
  check values "THigh holds W = 2" [ V.Int 3 ] (table "THigh");
  let q = ok_exn (Surface.Parser.query env "select Id, W from Accts where W > 1") in
  let rows = Query.Eval.rows env (Query.Eval.client_db inst) q in
  check values "W > 1 returns the Vip at W = 2 alone" [ V.Int 3 ] (ids rows)

let test_reader_matches_oracle () =
  let files = example_texts () in
  check Alcotest.int "thirteen example files" 13 (List.length files);
  List.iter
    (fun (file, text) ->
      same_reading file text;
      for i = 0 to String.length text - 1 do
        same_reading (Printf.sprintf "%s, prefix of %d bytes" file i) (String.sub text 0 i)
      done;
      mutations ~seed:18 ~count:2000 text (fun what -> same_reading (file ^ ", " ^ what)))
    files;
  let base = save (Lazy.force customer_loaded) in
  same_reading "customer" base;
  List.iter (fun (label, st) -> same_reading ("customer after " ^ label) (save st))
    (Lazy.force customer_suite_states);
  mutations ~seed:21 ~count:200 base (fun what -> same_reading ("customer, " ^ what))

(* [save] walks the views as a DAG; {!State_io_tree} walks them as trees.
   They must write the same bytes. *)
let same_as_tree_encoder what st =
  let text = save st in
  if not (String.equal text (State_io_tree.save st)) then
    Alcotest.failf "%s: save differs from the tree-walk encoder" what

let test_save_matches_oracle () =
  List.iter
    (fun (name, st) -> same_as_tree_encoder name (Lazy.force st))
    [ ("paper", paper_state); ("chain-5", chain5_evolved); ("customer", customer_state);
      ("customer loaded", customer_loaded) ];
  List.iter (fun (label, st) -> same_as_tree_encoder ("customer after " ^ label) st)
    (Lazy.force customer_suite_states)

(* On a loaded state every term is one physical node, so the DAG walk
   looks up each distinct term exactly once. *)
let test_encode_visits () =
  let st = Lazy.force customer_loaded in
  Obs.Span.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () -> ignore (save st));
  let span = List.hd (Obs.Span.roots ()) in
  check Alcotest.string "the span" "surface.io.encode" (Obs.Span.name span);
  let attr k = int_of_string (List.assoc k (Obs.Span.attrs span)) in
  check Alcotest.int "visits = distinct terms" (attr "terms") (attr "visits");
  Obs.Span.reset ()

(* A string constant holding a CR survives [save] and [load]. *)
let test_cr_constant () =
  let st = Lazy.force paper_state in
  let cr = C.Cmp ("Name", C.Eq, V.String "a\rb") in
  let frags =
    List.map
      (fun (f : Mapping.Fragment.t) -> { f with Mapping.Fragment.client_cond = C.And (f.client_cond, cr) })
      (Mapping.Fragments.to_list st.Core.State.fragments)
  in
  let st = { st with Core.State.fragments = Mapping.Fragments.of_list frags } in
  let text = save st in
  let st' = ok_exn (load text) in
  checkb "fragments survive" true (Mapping.Fragments.equal st.Core.State.fragments st'.Core.State.fragments);
  checkb "save (load t) = t" true (String.equal (save st') text)

(* -- loader fuzzing ---------------------------------------------------------------------- *)

(* A saved document with, for each [#k] in it, its offset, [k], and the
   index of the term entry it sits in ([None] outside the table), and the
   sort of every entry.  [save] writes one entry a line. *)
type fuzz_doc = {
  text : string;
  refs : (int * int * int option) array;
  sorts : string array;
  parens : int array;
}

let sort_of_head h =
  if List.mem h [ "scan"; "select"; "project"; "join"; "loj"; "foj"; "union" ] then "query"
  else if List.mem h [ "entity"; "tuple"; "if" ] then "constructor"
  else "condition"

let fuzz_doc text =
  let sorts = ref [] and entries = ref 0 and refs = ref [] and in_terms = ref false and offset = ref 0 in
  List.iter
    (fun line ->
      let n = String.length line in
      if n > 1 && String.sub line 0 2 = " (" then in_terms := line = " (terms";
      let entry = !in_terms && n > 2 && String.sub line 0 2 = "  " in
      let here = if entry then Some !entries else None in
      if entry then (
        let head =
          if line.[2] <> '(' then "true" else List.hd (String.split_on_char ' ' (String.sub line 3 (n - 3)))
        in
        sorts := sort_of_head head :: !sorts;
        incr entries);
      String.iteri
        (fun i ch ->
          let j = ref (i + 1) in
          while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
          if ch = '#' && !j > i + 1 then
            refs := (!offset + i, int_of_string (String.sub line (i + 1) (!j - i - 1)), here) :: !refs)
        line;
      offset := !offset + n + 1)
    (String.split_on_char '\n' text);
  let parens = ref [] in
  String.iteri (fun i ch -> if ch = '(' || ch = ')' then parens := i :: !parens) text;
  { text; refs = Array.of_list (List.rev !refs); sorts = Array.of_list (List.rev !sorts);
    parens = Array.of_list (List.rev !parens) }

(* The customer state and three random models, each saved. *)
let fuzz_docs =
  lazy
    (Array.of_list
       (List.map fuzz_doc
          (save (Lazy.force customer_loaded)
          :: List.map
               (fun seed ->
                 let env, frags = Workload.Random_model.generate ~seed () in
                 save
                   (Core.State.of_compiled env frags
                      (ok_exn (Fullc.Compile.compile ~validate:false env frags))))
               [ 1; 2; 3 ])))

(* [text] with [s.[i .. j-1]] replaced by [by]. *)
let splice s i j by = String.sub s 0 i ^ by ^ String.sub s j (String.length s - j)

(* A damaged copy of [d.text], and whether [load] must reject it.  [r] picks
   the place and [n] the replacement. *)
let damage d (kind, r, n) =
  let pick a = a.(int_of_float (r *. float_of_int (Array.length a - 1))) in
  let rewrite_ref f =
    let at, k, entry = pick d.refs in
    let digits = String.length (string_of_int k) in
    match f k entry with
    | Some k' -> (splice d.text (at + 1) (at + 1 + digits) (string_of_int k'), true)
    | None -> (d.text, false)
  in
  let entries = Array.length d.sorts in
  match kind with
  | `Truncate ->
      let at = int_of_float (r *. float_of_int (String.length d.text - 1)) in
      (String.sub d.text 0 at, true)
  | `Drop_paren ->
      let at = pick d.parens in
      (splice d.text at (at + 1) "", false)
  | `Duplicate_paren ->
      let at = pick d.parens in
      (splice d.text at at (String.make 1 d.text.[at]), false)
  | `Forward -> rewrite_ref (fun _ entry -> Option.map (fun e -> e + (n mod (entries - e))) entry)
  | `Out_of_range -> rewrite_ref (fun _ _ -> Some (entries + n))
  | `Wrong_sort ->
      rewrite_ref (fun k entry ->
          let limit = Option.value entry ~default:entries in
          let others = List.filter (fun i -> d.sorts.(i) <> d.sorts.(k)) (List.init limit Fun.id) in
          match others with [] -> None | l -> Some (List.nth l (n mod List.length l)))
  | `Flip_byte ->
      let at = int_of_float (r *. float_of_int (String.length d.text - 1)) in
      (splice d.text at (at + 1) (String.make 1 (Char.chr (n land 255))), false)

(* [load] answers every damaged document, [Ok] or [Error], and never raises;
   a truncated document and a forward, out-of-range or wrong-sort reference
   are always rejected. *)
let prop_loader_fuzz =
  let gen =
    QCheck.Gen.(
      triple (int_bound 3)
        (oneofl [ `Truncate; `Drop_paren; `Duplicate_paren; `Forward; `Out_of_range; `Wrong_sort; `Flip_byte ])
        (pair (float_bound_inclusive 1.) (int_bound 1_000_000)))
  in
  qtest "loader fuzz: damaged documents never raise" ~count:400 (QCheck.make gen)
    (fun (which, kind, (r, n)) ->
      let text, must_fail = damage (Lazy.force fuzz_docs).(which) (kind, r, n) in
      match load text with
      | Ok _ when must_fail -> QCheck.Test.fail_reportf "a malformed document loaded"
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "load raised %s" (Printexc.to_string e))

let () =
  Alcotest.run "surface"
    [
      ( "model files",
        [
          Alcotest.test_case "paper model parses and elaborates" `Quick test_parse_paper_model;
          Alcotest.test_case "print/parse roundtrip" `Quick test_model_print_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "truncated bindings" `Quick test_truncated_bindings;
          Alcotest.test_case "declaration errors carry a position" `Quick test_declaration_positions;
          Alcotest.test_case "unresolvable parents" `Quick test_dsl_unresolvable_parents;
          Alcotest.test_case "example files fuzzed" `Quick test_examples_fuzz;
          Alcotest.test_case "Int literals on a Decimal attribute" `Quick test_int_on_decimal;
          prop_cond_print_parse;
        ] );
      ( "smo scripts",
        [
          Alcotest.test_case "paper pipeline as a script" `Quick test_smo_script;
          Alcotest.test_case "all statement forms" `Quick test_smo_script_other_forms;
          Alcotest.test_case "SMO printing roundtrips" `Quick test_smo_print_parse_roundtrip;
          Alcotest.test_case "inferred diffs replay" `Quick test_diff_script_replays;
        ] );
      ( "sexp",
        [
          prop_sexp_roundtrip;
          Alcotest.test_case "CR is quoted" `Quick test_sexp_cr;
          prop_reader_matches_oracle;
          Alcotest.test_case "reader matches the oracle" `Quick test_reader_matches_oracle;
        ] );
      ( "state io",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_state_roundtrip;
          Alcotest.test_case "evolved views survive" `Quick test_state_io_views_after_evolution;
          Alcotest.test_case "tree form loads" `Quick test_tree_form_loads;
          Alcotest.test_case "canonical form" `Quick test_canonical_form;
          Alcotest.test_case "customer save (load t) = t" `Quick test_customer_roundtrip;
          Alcotest.test_case "committed documents re-save unchanged" `Quick test_committed_documents;
          Alcotest.test_case "loaded state is shared" `Quick test_loaded_state_is_shared;
          Alcotest.test_case "bad references" `Quick test_bad_references;
          Alcotest.test_case "update binding form" `Quick test_update_binding_form;
          Alcotest.test_case "no tuple constructors" `Quick test_no_tuple_constructors;
          Alcotest.test_case "unresolvable parents" `Quick test_unresolvable_parents;
          Alcotest.test_case "entity sets rooted at roots" `Quick test_set_roots;
          Alcotest.test_case "save matches the tree-walk encoder" `Quick test_save_matches_oracle;
          Alcotest.test_case "encoder visits each term once" `Quick test_encode_visits;
          Alcotest.test_case "CR in a string constant" `Quick test_cr_constant;
          prop_load_never_raises;
          prop_loader_fuzz;
        ] );
    ]
