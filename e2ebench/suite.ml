(* The compiled customer state every workload starts from, the Fig. 10 SMO
   suite over it, and the verdicts those SMOs must get. *)

let ok what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* The state a user obtains from an already validated .imcs file: view
   generation without the full compiler's validation (the paper's
   exponential baseline), saved and loaded back.  Returns the saved text and
   the loaded state. *)
let compiled_state () =
  let env, frags = Workload.Customer.generate () in
  let c = ok "compile" (Fullc.Compile.compile ~validate:false ~jobs:1 env frags) in
  let text = Surface.State_io.save (Core.State.of_compiled env frags c) in
  (text, ok "load" (Surface.State_io.load text))

let smos = Array.of_list (Workload.Customer.smo_suite ())

(* Hand-written expected verdicts: each SMO of the suite is valid on the
   customer model, alone and after any other subset of the suite. *)
let expected =
  [ ("AE-TPT", `Accept); ("AE-TPC", `Accept); ("AE-TPH", `Accept); ("AEP-1p", `Accept);
    ("AEP-2p", `Accept); ("AEP-3p", `Accept); ("AA-FK", `Accept); ("AA-JT", `Accept);
    ("AP", `Accept) ]

let labels = List.map fst expected

(* Whether an outcome matches the table; an [Error] names the mismatch. *)
let check_verdict label outcome =
  match (List.assoc_opt label expected, outcome) with
  | Some `Accept, Ok _ -> Ok ()
  | Some `Accept, Error e ->
      Error (Printf.sprintf "%s rejected: %s" label (Containment.Validation_error.show e))
  | None, _ -> Error ("no expected verdict for " ^ label)

(* A seeded permutation of the whole suite. *)
let permutation rng =
  let a = Array.copy smos in
  Common.shuffle rng a;
  Array.to_list a
