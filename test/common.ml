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

(* Error-severity [Lint.Wf] findings over a state's compiled views, rendered.
   The compilers do not run this structural check themselves; the random
   compile and SMO pipelines of the suite assert it after every step. *)
let wf_errors (st : Core.State.t) =
  Lint.Wf.check st.Core.State.env st.Core.State.query_views st.Core.State.update_views
  |> Lint.Diag.errors
  |> List.map (Format.asprintf "%a" Lint.Diag.pp)

let check_wf tag st = check Alcotest.(list string) (tag ^ ": well-formed views") [] (wf_errors st)

let check_ok msg = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: expected Ok, got Error %s" msg e

let check_error msg = function
  | Ok () -> Alcotest.failf "%s: expected Error, got Ok" msg
  | Error _ -> ()

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
  QCheck.make ~print:Edm.Instance.show gen_client_instance

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
