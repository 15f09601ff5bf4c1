(* The [edit] workload: the persisted Fig. 7 loop, as a user runs
   [imcc evolve -f s.imcs --script x.smo -o s.imcs] followed by [imcc lint].
   Every op loads the same saved text, applies one suite SMO, lints the
   result and saves it.  Ops are independent of each other, so each op's
   work depends only on its SMO. *)

open Common

(* Ops come in rounds, each a seeded permutation of the whole suite, so every
   run of a given length does the same multiset of SMOs. *)
let schedule rng ~ops =
  let rec go acc n = if n <= 0 then acc else go (List.rev_append (Suite.permutation rng) acc) (n - 9) in
  List.filteri (fun i _ -> i < ops) (List.rev (go [] ops))

let run ~rng ~ops p text =
  let script = schedule rng ~ops in
  List.iteri
    (fun i (label, smo) ->
      let r = p.rec_ in
      (* Each op stands for fresh [imcc] processes, so it starts on a
         collected heap instead of paying the previous op's GC debt. *)
      let outcome =
        timed_op ~collect:true p label @@ fun () ->
        match call r "surface.load" (fun () -> Surface.State_io.load text) with
        | Error e -> Error ("load: " ^ e)
        | Ok st -> (
            let s = Core.Session.start st in
            match call r "core.apply" (fun () -> Core.Session.apply ~jobs:1 s smo) with
            | Error e -> Ok (Error e, [], "")
            | Ok s ->
                let diags = call r "lint.run" (fun () -> Core.Session.lint s) in
                let out = call r "surface.save" (fun () -> Surface.State_io.save (Core.Session.current s)) in
                Ok (Ok (), diags, out))
      in
      (* Checks, outside the timed region. *)
      let sampled = i < Array.length Suite.smos in
      let errors, roundtrip =
        match outcome with
        | Error e -> ([ e ], None)
        | Ok (verdict, diags, out) -> (
            match Suite.check_verdict label verdict with
            | Error e -> ([ e ], None)
            | Ok () ->
                let apply_ms = List.hd (samples r "core.apply") in
                add_sample r ("core.smo." ^ label) apply_ms;
                p.write_ms <- List.hd (samples r "surface.save") :: p.write_ms;
                p.state_bytes <- float_of_int (String.length out) :: p.state_bytes;
                ( List.concat
                    [
                      List.map
                        (fun d -> label ^ ": lint error " ^ Lint.Diag.(d.code))
                        (Lint.Diag.errors diags);
                      (if String.equal out text then [ label ^ ": saved state unchanged" ] else []);
                    ],
                  if sampled then Some out else None ))
      in
      (* The round trip is checked on the first round, one op of each SMO
         kind, so every run checks the same outputs whatever its seed.  It
         runs on a collected heap with only the saved text live. *)
      let errors =
        match roundtrip with
        | None -> errors
        | Some out -> (
            Gc.full_major ();
            match Surface.State_io.load out with
            | Ok st when String.equal (Surface.State_io.save st) out -> errors
            | Ok _ -> errors @ [ label ^ ": save (load text) <> text" ]
            | Error e -> errors @ [ label ^ ": saved state does not load: " ^ e ])
      in
      checked p errors)
    script
