(* The parallel discharge engine (Containment.Discharge):

   - differential determinism: for any batch, jobs=1 and jobs=4 produce the
     same verdict, and on failure the SAME first failing obligation (in
     emission order) — the acceptance criterion of the obligation API;
   - cache safety: the shared verdict memo can be hammered from several
     domains at once without corrupting verdicts. *)

open Common

module O = Containment.Obligation
module VE = Containment.Validation_error

let env = pe.Workload.Paper_example.env
let persons = A.Scan (A.Entity_set "Persons")
let sel c q = A.Select (c, q)
let proj cols q = A.project_cols cols q

(* Employee ⊆ Person holds; Person ⊆ Employee does not.  Vary the selection
   by [i] so distinct obligations are distinct memo keys. *)
let emp_ids i = proj [ "Id" ] (sel (C.And (C.Is_of "Employee", C.Cmp ("Id", C.Ge, V.Int i))) persons)
let person_ids i = proj [ "Id" ] (sel (C.And (C.Is_of "Person", C.Cmp ("Id", C.Ge, V.Int i))) persons)

let obligation i ~holds =
  let lhs, rhs = if holds then (emp_ids i, person_ids i) else (person_ids i, emp_ids i) in
  O.make
    ~name:(Printf.sprintf "test.ob-%d" i)
    ~env ~lhs ~rhs
    ~on_fail:(Printf.sprintf "obligation %d failed" i)

let batch_of_pattern pattern = List.mapi (fun i holds -> obligation i ~holds) pattern

let verdict = function Ok () -> "ok" | Error e -> "fail: " ^ VE.show e

(* -- differential: jobs=1 vs jobs=4 --------------------------------------- *)

let prop_differential =
  qtest ~count:100 "jobs=1 and jobs=4 agree on verdict and first failure"
    QCheck.(make ~print:(fun l -> String.concat "" (List.map (fun b -> if b then "T" else "F") l))
              (QCheck.Gen.list_size (QCheck.Gen.int_range 0 24) QCheck.Gen.bool))
    (fun pattern ->
      let seq = Containment.Discharge.run ~jobs:1 (batch_of_pattern pattern) in
      let par = Containment.Discharge.run ~jobs:4 (batch_of_pattern pattern) in
      (* Byte-identical failure rendering, not just the same Ok/Error tag. *)
      if verdict seq <> verdict par then
        QCheck.Test.fail_reportf "jobs=1: %s / jobs=4: %s" (verdict seq) (verdict par);
      (* The reported failure is the FIRST false in emission order. *)
      (match List.find_index (fun holds -> not holds) pattern, par with
      | None, Ok () -> ()
      | None, Error e -> QCheck.Test.fail_reportf "all-holds batch failed: %s" (VE.show e)
      | Some _, Ok () -> QCheck.Test.fail_reportf "batch with a failure passed"
      | Some i, Error e ->
          let expected = Printf.sprintf "obligation %d failed" i in
          if VE.show e <> expected then
            QCheck.Test.fail_reportf "expected %S, got %S" expected (VE.show e));
      true)

let test_failure_is_structured () =
  match Containment.Discharge.run ~jobs:4 (batch_of_pattern [ true; false; true ]) with
  | Ok () -> Alcotest.fail "expected a failure"
  | Error e ->
      check Alcotest.(option string) "tagged with the obligation name" (Some "test.ob-1")
        (VE.obligation e);
      check Alcotest.string "legacy rendering is the bare message" "obligation 1 failed"
        (VE.show e)

(* -- cache safety under domain concurrency --------------------------------- *)

let test_cache_hammer () =
  Containment.Check.set_caching true;
  Containment.Check.clear_cache ();
  Fun.protect ~finally:(fun () ->
      Containment.Check.set_caching false;
      Containment.Check.clear_cache ())
  @@ fun () ->
  (* 4 domains re-prove the same handful of (lhs, rhs) pairs concurrently, so
     every iteration races memo_find/memo_add on shared keys. *)
  let rounds = 200 in
  let worker () =
    let wrong = ref 0 in
    for r = 1 to rounds do
      let i = r mod 5 in
      (match Containment.Check.subset env (emp_ids i) (person_ids i) with
      | Ok true -> ()
      | Ok false | Error _ -> incr wrong);
      match Containment.Check.subset env (person_ids i) (emp_ids i) with
      | Ok false -> ()
      | Ok true | Error _ -> incr wrong
    done;
    !wrong
  in
  let domains = List.init 3 (fun _ -> Domain.spawn worker) in
  let wrong = worker () + List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  check Alcotest.int "no corrupted verdicts across 4 domains" 0 wrong;
  (* And the discharge engine itself, with the cache on. *)
  let batch = batch_of_pattern (List.init 40 (fun _ -> true)) in
  for _ = 1 to 5 do
    match Containment.Discharge.run ~jobs:4 batch with
    | Ok () -> ()
    | Error e -> Alcotest.failf "cached parallel batch failed: %s" (VE.show e)
  done

let () =
  Alcotest.run "discharge"
    [
      ( "determinism",
        [
          prop_differential;
          Alcotest.test_case "structured failure" `Quick test_failure_is_structured;
        ] );
      ("cache safety", [ Alcotest.test_case "4-domain hammer" `Quick test_cache_hammer ]);
    ]
