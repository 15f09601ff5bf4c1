(* A development session on a blog platform — the workflow the paper's
   introduction motivates: the programmer keeps making small model changes
   and the mapping is recompiled incrementally after each one, with
   validation guarding against lossy mappings.

   Model evolution:
     start    Content(Id, Title) -> Contents table, Author(Id, Handle)
     step 1   + Post : Content (Body)          — TPH into Contents
     step 2   + Page : Content (Slug)          — TPH into Contents
     step 3   + Review : Post (Stars)          — TPT to its own table
     step 4   + WrittenBy⟨Content, Author⟩     — FK column in Contents
     step 5   + Tagged⟨Content, Author⟩        — many-to-many join table
     step 6   + Content.PublishedAt            — new column in Contents

   Run with: dune exec examples/blog_platform.exe *)

module D = Datum.Domain
module V = Datum.Value
module T = Relational.Table
module C = Query.Cond

let ok = function Ok x -> x | Error e -> failwith e

let step st label smo =
  match Core.Engine.apply_timed st smo with
  | Ok (st', t) ->
      Printf.printf "  %-28s ok  (%.2f ms, %d containment checks)\n%!" label
        (t.Core.Engine.seconds *. 1000.)
        (List.assoc "containment.checks" t.Core.Engine.containment.Obs.Metric.counters);
      st'
  | Error e -> failwith (label ^ ": " ^ Containment.Validation_error.show e)

let () =
  (* -- bootstrap -------------------------------------------------------- *)
  let client =
    ok
      (Edm.Schema.add_root ~set:"Contents"
         (Edm.Entity_type.root ~name:"Content" ~key:[ "Id" ]
            [ ("Id", D.Int); ("Title", D.String) ])
         Edm.Schema.empty)
  in
  let client =
    ok
      (Edm.Schema.add_root ~set:"Authors"
         (Edm.Entity_type.root ~name:"Author" ~key:[ "Aid" ]
            [ ("Aid", D.Int); ("Handle", D.String) ])
         client)
  in
  let store =
    List.fold_left
      (fun s t -> ok (Relational.Schema.add_table t s))
      Relational.Schema.empty
      [
        T.make ~name:"Contents" ~key:[ "Id" ]
          [ ("Id", D.Int, `Not_null); ("Kind", D.String, `Null); ("Title", D.String, `Null);
            ("Body", D.String, `Null); ("Slug", D.String, `Null); ("AuthorRef", D.Int, `Null) ];
        T.make ~name:"Authors" ~key:[ "Aid" ]
          [ ("Aid", D.Int, `Not_null); ("Handle", D.String, `Null) ];
      ]
  in
  let fragments =
    Mapping.Fragments.of_list
      [
        Mapping.Fragment.entity ~set:"Contents" ~cond:(C.Is_of "Content") ~table:"Contents"
          ~store_cond:(C.Cmp ("Kind", C.Eq, V.String "content"))
          [ ("Id", "Id"); ("Title", "Title") ];
        Mapping.Fragment.entity ~set:"Authors" ~cond:(C.Is_of "Author") ~table:"Authors"
          [ ("Aid", "Aid"); ("Handle", "Handle") ];
      ]
  in
  let st = ok (Fullc.Compile.compile (Query.Env.make ~client ~store) fragments) in
  print_endline "bootstrapped blog model (Content, Author); evolving:";

  (* -- the session ------------------------------------------------------ *)
  let st =
    step st "add Post (TPH)"
      (Core.Smo.Add_entity_tph
         { entity = Edm.Entity_type.derived ~name:"Post" ~parent:"Content" [ ("Body", D.String) ];
           table = "Contents";
           fmap = [ ("Id", "Id"); ("Title", "Title"); ("Body", "Body") ];
           discriminator = ("Kind", V.String "post") })
  in
  let st =
    step st "add Page (TPH)"
      (Core.Smo.Add_entity_tph
         { entity = Edm.Entity_type.derived ~name:"Page" ~parent:"Content" [ ("Slug", D.String) ];
           table = "Contents";
           fmap = [ ("Id", "Id"); ("Title", "Title"); ("Slug", "Slug") ];
           discriminator = ("Kind", V.String "page") })
  in
  let st =
    step st "add Review (TPT under Post)"
      (Core.Smo.Add_entity
         { entity = Edm.Entity_type.derived ~name:"Review" ~parent:"Post" [ ("Stars", D.Int) ];
           alpha = [ "Id"; "Stars" ]; p_ref = Some "Post";
           table =
             T.make ~name:"Reviews" ~key:[ "Id" ]
               ~fks:[ { T.fk_columns = [ "Id" ]; ref_table = "Contents"; ref_columns = [ "Id" ] } ]
               [ ("Id", D.Int, `Not_null); ("Stars", D.Int, `Null) ];
           fmap = [ ("Id", "Id"); ("Stars", "Stars") ] })
  in
  let st =
    step st "add WrittenBy (FK)"
      (Core.Smo.Add_assoc_fk
         { assoc =
             { Edm.Association.name = "WrittenBy"; end1 = "Content"; end2 = "Author";
               mult1 = Edm.Association.Many; mult2 = Edm.Association.Zero_or_one };
           table = "Contents";
           fmap = [ ("Content.Id", "Id"); ("Author.Aid", "AuthorRef") ] })
  in
  let st =
    step st "add Tagged (join table)"
      (Core.Smo.Add_assoc_jt
         { assoc =
             { Edm.Association.name = "Tagged"; end1 = "Content"; end2 = "Author";
               mult1 = Edm.Association.Many; mult2 = Edm.Association.Many };
           table =
             T.make ~name:"Tags" ~key:[ "Cid"; "Aid" ]
               ~fks:
                 [ { T.fk_columns = [ "Cid" ]; ref_table = "Contents"; ref_columns = [ "Id" ] };
                   { T.fk_columns = [ "Aid" ]; ref_table = "Authors"; ref_columns = [ "Aid" ] } ]
               [ ("Cid", D.Int, `Not_null); ("Aid", D.Int, `Not_null) ];
           fmap = [ ("Content.Id", "Cid"); ("Author.Aid", "Aid") ] })
  in
  let st =
    step st "add Content.PublishedAt"
      (Core.Smo.Add_property
         { etype = "Content"; attr = ("PublishedAt", D.String);
           target = Core.Add_property.To_existing_table { table = "Contents"; column = "PublishedAt" } })
  in

  (* -- exercise the final mapping --------------------------------------- *)
  let env = st.Core.State.env in
  (match
     Roundtrip.Check.roundtrips env st.Core.State.query_views st.Core.State.update_views
       ~samples:50 ()
   with
  | Ok n -> Printf.printf "\nroundtrip check over %d random blog states: ok\n%!" n
  | Error f ->
      Format.eprintf "roundtrip failure!@.%a@." Roundtrip.Check.pp_failure f;
      exit 1);

  let posts_by_author =
    Query.Algebra.project_cols [ "Id"; "Title"; "Body" ]
      (Query.Algebra.Select
         (C.Is_of "Post", Query.Algebra.Scan (Query.Algebra.Entity_set "Contents")))
  in
  let sql = ok (Query.Unfold.client_query env st.Core.State.query_views posts_by_author) in
  Format.printf "@.client query 'all posts' unfolds to:@.%a@." Query.Pretty.query sql;

  Format.printf "@.final update view of the Contents table:@.%a@."
    Query.Pretty.query
    (Option.get (Query.View.table_view st.Core.State.update_views "Contents"))
