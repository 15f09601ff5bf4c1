(* The compilers' output, pinned: the MD5 of [Surface.State_io.save] of
   states the full compiler and the SMOs build.  A change that alters any
   view, fragment or schema the compilers emit changes a digest here, so a
   refactor meant to keep the output shows that it did.

   After an intended change of the output, regenerate the table with

     dune exec test/test_pinned.exe -- --print

   and paste what it prints over [pinned]. *)

open Common

let compiled (env, frags) =
  Core.State.of_compiled env frags (ok_exn (Fullc.Compile.compile ~validate:false env frags))

(* A state's saved text, or the message of the error that rejected it:
   a rejection is pinned too. *)
let text = function Ok st -> Surface.State_io.save st | Error e -> "rejected: " ^ show_v e
let digest r = Digest.to_hex (Digest.string (text r))

(* Each SMO of [suite] applied alone to [st], then the whole suite
   chained. *)
let suite_states prefix st suite =
  List.map (fun (label, smo) -> (prefix ^ " " ^ label, Core.Engine.apply st smo)) suite
  @ [ (prefix ^ " chained", Core.Engine.apply_all st (List.map snd suite)) ]

let states () =
  let customer = compiled (Workload.Customer.generate ()) in
  let chain = compiled (Workload.Chain.generate ~size:10) in
  [ ("customer", Ok customer) ]
  @ suite_states "customer" customer (Workload.Customer.smo_suite ())
  @ List.map
      (fun (label, before, smo) ->
        ( "customer " ^ label,
          Result.bind (Core.Engine.apply_all customer before) (fun st -> Core.Engine.apply st smo) ))
      (Workload.Customer.drop_suite ())
  @ [ ("chain", Ok chain) ]
  @ List.map
      (fun (label, smo) -> ("chain " ^ label, Core.Engine.apply chain smo))
      (Workload.Chain.smo_suite ~at:5)
  @ List.map
      (fun seed ->
        (Printf.sprintf "random %d" seed, Ok (compiled (Workload.Random_model.generate ~seed ()))))
      [ 1; 2; 3; 4; 5; 6 ]

let pinned =
  [
    ("customer", "6e1cef13994b208ac429ff5668144543");
    ("customer AE-TPT", "11b94657be13a8853f5640ef21985ebe");
    ("customer AE-TPC", "15283339705548459d1c90aef0f90828");
    ("customer AE-TPH", "5700183df69b5609040be25dfa68cb0b");
    ("customer AEP-1p", "ed7b99c5f81f052e86a0e2ee465f90c1");
    ("customer AEP-2p", "d7c40906bdb1c12481e50dbcc0cc74fe");
    ("customer AEP-3p", "1d92cd2f2233452edb9f3a0b9a6d8634");
    ("customer AA-FK", "9c1b5929ce93ec4d5cc7cd35a5f3a57f");
    ("customer AA-JT", "7cc5cb35ea7f47aacd083b1d2e593fa4");
    ("customer AP", "3f65454749c6086931861f6f025e401b");
    ("customer chained", "24c8f165a7c50e71a905b0ad6a687b67");
    ("customer DROP", "518a8864b18bc3ebe9d46634e091b2bb");
    ("customer DROP-P", "35dc2a17e6799e18d56cdd18f2113314");
    ("customer DROP-A", "a8f9df89cc7c0af85f8f9d7477fa3c39");
    ("customer DROP-TPH", "daabde3728a2ef35282fd24d51ebafd3");
    ("customer DROP-TPC", "7fe9316bf20846892e537dab7b22d497");
    ("chain", "acf204a0f40256d08b797d525183d7fc");
    ("chain AE-TPT", "5c9cd6c8057c9eed498b0e4174be38d2");
    ("chain AE-TPC", "5248b17879f0838e4ac35f7009075d40");
    ("chain AE-TPC-fk", "c86311eddc117216b718a0998c267198");
    ("chain AE-TPH", "b66602ff9ed51fed9f5158e3a37033ce");
    ("chain AEP-1p", "5d75df1bf1a37150d7ada68c8609c8d9");
    ("chain AEP-2p", "7c97b89383907512f379a71e99316ebc");
    ("chain AEP-3p", "f9710a53e4bf587ca7f75a2927334464");
    ("chain AA-FK", "a61c353f80c7ab2de78e55784c7c367f");
    ("chain AA-JT", "32e8ff3eaf909b99baf52d493a9550e8");
    ("chain AP", "38c18f379dbde4546bee1e5385bf9df0");
    ("random 1", "96b45319fb610ba1ef85f9c4fba5c85d");
    ("random 2", "b435e9b78f444013fcb2f2232e5fa023");
    ("random 3", "b6ace4f65bd21dbe60ac33dc20be3228");
    ("random 4", "d721f615d7c02d35f93bcb30871e5429");
    ("random 5", "fe549a648ff6aa5409f5665d23831cf6");
    ("random 6", "80391fe3e86447a61783919f429e5965");
  ]

let test_pinned () =
  let actual = List.map (fun (label, st) -> (label, digest st)) (states ()) in
  check Alcotest.(list string) "pinned labels" (List.map fst pinned) (List.map fst actual);
  List.iter (fun (label, d) -> check Alcotest.string label (List.assoc label pinned) d) actual

let () =
  if Array.exists (String.equal "--print") Sys.argv then
    List.iter
      (fun (label, st) -> Printf.printf "    (%S, %S);\n" label (digest st))
      (states ())
  else
    Alcotest.run "pinned"
      [ ("output", [ Alcotest.test_case "State_io.save digests" `Slow test_pinned ]) ]
