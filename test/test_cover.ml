(* The closed-form coverage reasoner of Section 3.3 (Query.Cover), tested
   over its full decision surface: intervals, enum domains, nullability,
   type-atom resolution, and the soundness property against brute-force
   evaluation. *)

open Common

let schema =
  let s =
    ok_exn
      (Edm.Schema.add_root ~set:"People"
         (Edm.Entity_type.root ~name:"Human" ~key:[ "Hid" ]
            ~non_null:[ "Age"; "Gender"; "W"; "S" ]
            [ ("Hid", D.Int); ("Age", D.Int); ("Gender", D.Enum [ "M"; "F" ]);
              ("Note", D.String); ("W", D.Decimal); ("S", D.String) ])
         Edm.Schema.empty)
  in
  ok_exn
    (Edm.Schema.add_derived
       (Edm.Entity_type.derived ~name:"Adulterer" ~parent:"Human" [ ("Extra", D.Int) ])
       s)

let taut c = Query.Cover.tautology schema ~etype:"Human" c
let sat c = Query.Cover.satisfiable schema ~etype:"Human" c
let implies a b = Query.Cover.implies schema ~etype:"Human" a b

let ge n = C.Cmp ("Age", C.Ge, V.Int n)
let lt n = C.Cmp ("Age", C.Lt, V.Int n)
let gt n = C.Cmp ("Age", C.Gt, V.Int n)
let le n = C.Cmp ("Age", C.Le, V.Int n)
let eqs a v = C.Cmp (a, C.Eq, V.String v)
let w op f = C.Cmp ("W", op, V.Decimal f)
let str op v = C.Cmp ("S", op, V.String v)

let test_interval_tautologies () =
  checkb "age >= 18 or age < 18" true (taut (C.Or (ge 18, lt 18)));
  checkb "age >= 18 or age < 17 leaves a gap" false (taut (C.Or (ge 18, lt 17)));
  checkb "age > 17 or age <= 17" true (taut (C.Or (gt 17, le 17)));
  checkb "integer rounding: > 17 or < 18" true (taut (C.Or (gt 17, lt 18)));
  checkb "three-way split" true (taut (C.disj [ lt 10; C.And (ge 10, lt 20); ge 20 ]));
  checkb "three-way split with a hole" false
    (taut (C.disj [ lt 10; C.And (ge 11, lt 20); ge 20 ]))

let test_enum_tautologies () =
  checkb "closed domain M or F" true (taut (C.Or (eqs "Gender" "M", eqs "Gender" "F")));
  checkb "M alone does not cover" false (taut (eqs "Gender" "M"));
  checkb "open string domain never covers by enumeration" false
    (taut (C.Or (eqs "Note" "a", eqs "Note" "b")))

let test_nullability () =
  (* Note is nullable: conditions over it can't be tautologies without a
     null test... *)
  checkb "null escapes comparisons" false
    (taut (C.Or (C.Cmp ("Note", C.Eq, V.String "x"), C.Cmp ("Note", C.Neq, V.String "x"))));
  checkb "null test completes the cover" true
    (taut
       (C.disj
          [ C.Is_null "Note"; C.Cmp ("Note", C.Eq, V.String "x");
            C.Cmp ("Note", C.Neq, V.String "x") ]));
  (* Age is declared non-null, so its comparisons do cover. *)
  checkb "non-null attribute covers" true (taut (C.Or (ge 0, lt 0)));
  (* Keys are implicitly non-null. *)
  checkb "key attribute covers" true
    (taut (C.Or (C.Cmp ("Hid", C.Ge, V.Int 0), C.Cmp ("Hid", C.Lt, V.Int 0))))

let test_type_atoms () =
  checkb "IS OF Human resolves true for Human" true (taut (C.Is_of "Human"));
  checkb "IS OF ONLY Human true for exact Human" true (taut (C.Is_of_only "Human"));
  checkb "IS OF ONLY Human false for Adulterer" false
    (Query.Cover.tautology schema ~etype:"Adulterer" (C.Is_of_only "Human"));
  checkb "IS OF Human true for the subtype" true
    (Query.Cover.tautology schema ~etype:"Adulterer" (C.Is_of "Human"));
  checkb "subtype atom unsatisfiable at the root" false (sat (C.Is_of "Adulterer"))

let test_satisfiable () =
  checkb "empty interval" false (sat (C.And (ge 10, lt 5)));
  checkb "point interval" true (sat (C.And (ge 10, le 10)));
  checkb "enum excluded values" false
    (sat (C.And (eqs "Gender" "M", eqs "Gender" "F")));
  checkb "false" false (sat C.False)

let test_implies () =
  checkb "tighter bound implies looser" true (implies (ge 18) (ge 10));
  checkb "looser does not imply tighter" false (implies (ge 10) (ge 18));
  checkb "equality implies inequality" true
    (implies (C.Cmp ("Age", C.Eq, V.Int 5)) (C.Cmp ("Age", C.Neq, V.Int 7)));
  checkb "conjunct implies disjunct" true (implies (C.And (ge 10, lt 20)) (C.Or (ge 10, ge 30)));
  checkb "enum case implication" true
    (implies (eqs "Gender" "M") (C.Or (eqs "Gender" "M", eqs "Gender" "F")));
  checkb "a satisfiable condition implies no comparison with NULL" false
    (implies (ge 5) (C.Cmp ("Age", C.Eq, V.Null)))

(* Values between near constants: a Decimal gap narrower than 1, and a
   String gap between a constant and its one-character extension. *)
let test_near_constants () =
  checkb "W <= 1.0 or W >= 1.2 leaves a gap" false (taut (C.Or (w C.Le 1.0, w C.Ge 1.2)));
  checkb "W <= 1.0 or W > 1.0" true (taut (C.Or (w C.Le 1.0, w C.Gt 1.0)));
  checkb "W > 1.0 and W < 1.2" true (sat (C.And (w C.Gt 1.0, w C.Lt 1.2)));
  checkb "W > 1.0 does not imply W >= 1.2" false (implies (w C.Gt 1.0) (w C.Ge 1.2));
  (* A Decimal attribute holds the Int 0 too, which W > 1 (an Int) misses. *)
  checkb "W > 1 leaves out the Int values up to 1" false (taut (C.Cmp ("W", C.Gt, V.Int 1)));
  checkb "S > 'a' and S < 'a~'" true (sat (C.And (str C.Gt "a", str C.Lt "a~")));
  checkb "nothing between 'a' and its least successor" false
    (sat (C.And (str C.Gt "a", str C.Lt "a\x00")));
  checkb "nothing below ''" false (sat (str C.Lt ""));
  checkb "S >= '' covers" true (taut (str C.Ge ""))

(* Soundness against brute force: conditions over Age (non-null int),
   Gender, W (non-null decimal) and S (non-null string), with near W and S
   constants (one of W's an Int, which a Decimal attribute may hold),
   against evaluation over a sweep that holds a value in every gap between
   them. *)
let w_constants = V.[ Decimal 1.0; Decimal 1.1; Decimal 1.2; Decimal 1.25; Int 1 ]
let s_constants = [ ""; "a"; "ab"; "a~" ]

(* A third of the conditions mix all four attributes; the others compare
   only W or only S, where covering disjunctions and empty conjunctions are
   common. *)
let gen_near_cond =
  QCheck.Gen.(
    let op = oneofl [ C.Eq; C.Neq; C.Lt; C.Le; C.Gt; C.Ge ] in
    let age =
      let* n = int_range 0 10 in
      let* op = op in
      return (C.Cmp ("Age", op, V.Int n))
    in
    let gender = map (eqs "Gender") (oneofl [ "M"; "F" ]) in
    let w_atom =
      let* v = oneofl w_constants in
      let* op = op in
      return (C.Cmp ("W", op, v))
    in
    let s_atom =
      let* v = oneofl s_constants in
      let* op = op in
      return (str op v)
    in
    let* atom = oneofl [ oneof [ age; gender; w_atom; s_atom ]; w_atom; s_atom ] in
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 1 then atom
            else
              frequency
                [ (1, atom);
                  (2, map2 (fun a b -> C.And (a, b)) (self (n / 2)) (self (n / 2)));
                  (2, map2 (fun a b -> C.Or (a, b)) (self (n / 2)) (self (n / 2))) ])
          (min n 6)))

let sweep =
  let ( let* ) l f = List.concat_map f l in
  let* age = List.init 31 (fun i -> i - 10) in
  let* g = [ "M"; "F" ] in
  (* One value below, between and above the constants, in every gap. *)
  let* wv = w_constants @ V.[ Decimal 0.5; Decimal 1.05; Decimal 1.15; Decimal 1.225; Decimal 2.0;
                                Int 0; Int 2 ] in
  let* sv = s_constants @ [ "0"; "a\x00"; "aa"; "ac"; "b" ] in
  [ Datum.Row.of_list
      [ ("$type", V.String "Human"); ("Hid", V.Int 1); ("Age", V.Int age);
        ("Gender", V.String g); ("Note", V.Null); ("W", wv); ("S", V.String sv) ] ]

let holds_on_sweep c = List.map (fun row -> C.eval schema row c) sweep

let prop_taut_sound =
  qtest "tautology agrees with brute-force sweeps" ~count:200
    (QCheck.make ~print:C.show gen_near_cond)
    (fun c -> taut c = List.for_all Fun.id (holds_on_sweep c))

let prop_sat_implies_sound =
  qtest "satisfiable and implies agree with sweeps" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(pair C.show C.show)
       QCheck.Gen.(pair gen_near_cond gen_near_cond))
    (fun (c1, c2) ->
      let h1 = holds_on_sweep c1 and h2 = holds_on_sweep c2 in
      sat c1 = List.exists Fun.id h1
      && implies c1 c2 = List.for_all2 (fun a b -> (not a) || b) h1 h2)

let () =
  Alcotest.run "cover"
    [
      ( "tautology",
        [
          Alcotest.test_case "intervals" `Quick test_interval_tautologies;
          Alcotest.test_case "enums" `Quick test_enum_tautologies;
          Alcotest.test_case "nullability" `Quick test_nullability;
          Alcotest.test_case "type atoms" `Quick test_type_atoms;
          Alcotest.test_case "near constants" `Quick test_near_constants;
        ] );
      ( "satisfiable / implies",
        [
          Alcotest.test_case "satisfiable" `Quick test_satisfiable;
          Alcotest.test_case "implies" `Quick test_implies;
        ] );
      ("soundness", [ prop_taut_sound; prop_sat_implies_sound ]);
    ]
