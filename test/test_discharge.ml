(* The discharge engine (Containment.Discharge):

   - determinism: for any batch, the verdict the batch's pattern dictates,
     and on failure the first failing obligation in emission order — the
     acceptance criterion of the obligation API — with no obligation past
     it proven;
   - domain safety: several domains running the stateless checker on the
     same checks at once get the same verdicts. *)

open Common

module O = Containment.Obligation
module VE = Containment.Validation_error

let env = pe.Workload.Paper_example.env
let persons = A.Scan (A.Entity_set "Persons")
let sel c q = A.Select (c, q)
let proj cols q = A.project_cols cols q

(* Employee ⊆ Person holds; Person ⊆ Employee does not.  Vary the selection
   by [i] so distinct obligations are distinct queries. *)
let emp_ids i = proj [ "Id" ] (sel (C.And (C.Is_of "Employee", C.Cmp ("Id", C.Ge, V.Int i))) persons)
let person_ids i = proj [ "Id" ] (sel (C.And (C.Is_of "Person", C.Cmp ("Id", C.Ge, V.Int i))) persons)

let obligation i ~holds =
  let lhs, rhs = if holds then (emp_ids i, person_ids i) else (person_ids i, emp_ids i) in
  O.make
    ~name:(lazy (Printf.sprintf "test.ob-%d" i))
    ~env ~lhs ~rhs
    ~on_fail:(lazy (Printf.sprintf "obligation %d failed" i))

let batch_of_pattern pattern = List.mapi (fun i holds -> obligation i ~holds) pattern

let verdict = function Ok () -> "ok" | Error e -> "fail: " ^ VE.show e

(* -- verdict and work, against the pattern --------------------------------- *)

let prop_first_failure =
  qtest ~count:100 "first failure stops the batch"
    QCheck.(make ~print:(fun l -> String.concat "" (List.map (fun b -> if b then "T" else "F") l))
              (QCheck.Gen.list_size (QCheck.Gen.int_range 0 24) QCheck.Gen.bool))
    (fun pattern ->
      (* The oracle: the FIRST false in emission order, rendered byte for
         byte, or success; the obligations proven are those up to and
         including it, or the whole batch. *)
      let expected, proven =
        match List.find_index (fun holds -> not holds) pattern with
        | None -> ("ok", List.length pattern)
        | Some i -> (Printf.sprintf "fail: obligation %d failed" i, i + 1)
      in
      let before = Obs.Metric.value O.discharged in
      let got = verdict (Containment.Discharge.run (batch_of_pattern pattern)) in
      let rose = Obs.Metric.value O.discharged - before in
      if got <> expected then QCheck.Test.fail_reportf "expected %S, got %S" expected got;
      if rose <> proven then
        QCheck.Test.fail_reportf "%s rose by %d, expected %d"
          (Obs.Metric.counter_name O.discharged) rose proven;
      true)

let test_failure_is_structured () =
  match Containment.Discharge.run (batch_of_pattern [ true; false; true ]) with
  | Ok () -> Alcotest.fail "expected a failure"
  | Error e ->
      check Alcotest.(option string) "tagged with the obligation name" (Some "test.ob-1")
        e.VE.obligation;
      check Alcotest.string "legacy rendering is the bare message" "obligation 1 failed"
        (VE.show e)

(* -- repeated pairs ------------------------------------------------------------ *)

let named name lhs rhs =
  O.make ~name:(lazy name) ~env ~lhs ~rhs ~on_fail:(lazy (name ^ " failed"))

(* Equal pairs, built apart (structural equality decides) and one wrapped
   in a projection that simplification removes, are proven once. *)
let test_repeats_proven_once () =
  let o0 = Obs.Metric.value O.discharged and c0 = Obs.Metric.value Containment.Check.checks in
  let batch =
    [ named "a" (emp_ids 0) (person_ids 0); named "b" (emp_ids 0) (person_ids 0);
      named "c" (proj [ "Id" ] (emp_ids 0)) (person_ids 0); named "d" (emp_ids 1) (person_ids 0) ]
  in
  check Alcotest.string "verdict" "ok" (verdict (Containment.Discharge.run batch));
  check Alcotest.int "obligations" 4 (Obs.Metric.value O.discharged - o0);
  check Alcotest.int "checks" 2 (Obs.Metric.value Containment.Check.checks - c0)

(* A failing pair fails at its first obligation, whose name the batch
   reports; the repeat is never reached.  The pair before it shares its
   lhs only, so it is not a repeat. *)
let test_repeat_failure () =
  let batch =
    [ named "same lhs" (person_ids 1) (person_ids 1); named "first" (person_ids 1) (emp_ids 1);
      named "second" (person_ids 1) (emp_ids 1) ]
  in
  match Containment.Discharge.run batch with
  | Ok () -> Alcotest.fail "expected a failure"
  | Error e ->
      check Alcotest.(option string) "first failing obligation" (Some "first") e.VE.obligation

let compiled_state (env, frags) =
  ok_exn (Fullc.Compile.compile ~validate:false env frags)

(* One verdict per obligation, or the failing obligation's name. *)
let outcome = function Ok () -> "ok" | Error e -> Option.value ~default:"?" e.VE.obligation

let prop_repeats_random =
  qtest ~count:100 "repeat removal keeps random pipelines' verdicts"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let st = compiled_state (Workload.Random_model.generate ~seed ()) in
      let rec go st = function
        | [] -> true
        | smo :: rest -> (
            match Core.Engine.compile st smo with
            | Error _ -> true
            | Ok (st', obls) ->
                let batch = Containment.Discharge.run obls in
                let alone =
                  Datum.Results.all_ok (fun o -> O.discharge ~prove:Containment.Check.subset o) obls
                in
                if outcome batch <> outcome alone then
                  QCheck.Test.fail_reportf "seed %d %s: batch %s, one by one %s" seed
                    (Core.Smo.name smo) (outcome batch) (outcome alone);
                Result.is_error batch || go st' rest)
      in
      match random_pipeline seed st with None -> true | Some smos -> go st smos)

(* -- safety under domain concurrency ---------------------------------------- *)

let test_domain_hammer () =
  (* 4 domains re-prove the same handful of (lhs, rhs) pairs concurrently. *)
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
  check Alcotest.int "no corrupted verdicts across 4 domains" 0 wrong

let () =
  Alcotest.run "discharge"
    [
      ( "determinism",
        [
          prop_first_failure;
          Alcotest.test_case "structured failure" `Quick test_failure_is_structured;
        ] );
      ( "repeats",
        [
          Alcotest.test_case "equal pairs proven once" `Quick test_repeats_proven_once;
          Alcotest.test_case "first name of a failing pair" `Quick test_repeat_failure;
          prop_repeats_random;
        ] );
      ("domain safety", [ Alcotest.test_case "4-domain hammer" `Quick test_domain_hammer ]);
    ]
