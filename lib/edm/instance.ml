module M = Map.Make (String)

type entity = { etype : string; attrs : Datum.Row.t }

let equal_entity a b = String.equal a.etype b.etype && Datum.Row.equal a.attrs b.attrs

let compare_entity a b =
  match String.compare a.etype b.etype with
  | 0 -> Datum.Row.compare a.attrs b.attrs
  | c -> c

let pp_entity fmt e = Format.fprintf fmt "%s%a" e.etype Datum.Row.pp e.attrs

type t = { ents : entity list M.t; lnks : Datum.Row.t list M.t }

let empty = { ents = M.empty; lnks = M.empty }

let cons_multi key v m =
  M.update key (function None -> Some [ v ] | Some l -> Some (v :: l)) m

let add_entity ~set e t = { t with ents = cons_multi set e t.ents }
let add_link ~assoc r t = { t with lnks = cons_multi assoc r t.lnks }
let set_entities ~set es t = { t with ents = M.add set es t.ents }
let set_links ~assoc rs t = { t with lnks = M.add assoc rs t.lnks }
let entities t ~set = Option.value ~default:[] (M.find_opt set t.ents)
let links t ~assoc = Option.value ~default:[] (M.find_opt assoc t.lnks)
let sets t = List.map fst (M.bindings t.ents)
let assocs t = List.map fst (M.bindings t.lnks)
let entity ~etype bindings = { etype; attrs = Datum.Row.of_list bindings }

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let sort_uniq_entities l = List.sort_uniq compare_entity l
let sort_uniq_rows l = List.sort_uniq Datum.Row.compare l

let check_entity schema ~set e =
  let* root =
    match Schema.set_root schema set with
    | Some r -> Ok r
    | None -> fail "unknown entity set %s" set
  in
  let* () =
    if Schema.mem_type schema e.etype && Schema.is_subtype schema ~sub:e.etype ~sup:root then Ok ()
    else fail "entity of type %s does not belong to set %s<%s>" e.etype set root
  in
  let attrs = Schema.attributes schema e.etype in
  let expected = List.map fst attrs in
  let actual = Datum.Row.columns e.attrs in
  let* () =
    if List.sort String.compare expected = List.sort String.compare actual then Ok ()
    else
      fail "entity %s has attributes {%s}, expected {%s}" e.etype (String.concat "," actual)
        (String.concat "," expected)
  in
  let* () =
    Datum.Results.all_ok
      (fun (a, d) ->
        let v = Datum.Row.get a e.attrs in
        if Datum.Value.member v d then Ok ()
        else fail "attribute %s of %s holds %s outside its domain" a e.etype (Datum.Value.show v))
      attrs
  in
  Datum.Results.all_ok
    (fun (a, _) ->
      if
        Datum.Value.is_null (Datum.Row.get a e.attrs)
        && not (Schema.attribute_nullable schema e.etype a)
      then fail "non-nullable attribute %s of a %s entity is null" a e.etype
      else Ok ())
    attrs

let check_keys_unique ~set entities_of_set schema =
  match entities_of_set with
  | [] -> Ok ()
  | e :: _ ->
      let key = Schema.key_of schema e.etype in
      let keys = List.map (fun e -> Datum.Row.project key e.attrs) entities_of_set in
      let sorted = List.sort Datum.Row.compare keys in
      let rec dup = function
        | a :: (b :: _ as rest) -> if Datum.Row.equal a b then Some a else dup rest
        | [ _ ] | [] -> None
      in
      (match dup sorted with
      | Some k -> fail "duplicate key %s in entity set %s" (Datum.Row.show k) set
      | None -> Ok ())

let key_values schema t ~etype =
  (* Keys of all entities in [etype]'s set whose type satisfies IS OF etype. *)
  match Schema.set_of_type schema etype with
  | None -> []
  | Some set ->
      let key = Schema.key_of schema etype in
      entities t ~set
      |> List.filter (fun e -> Schema.is_subtype schema ~sub:e.etype ~sup:etype)
      |> List.map (fun e -> Datum.Row.project key e.attrs)

let check_link schema t (a : Association.t) row =
  let cols1 = Association.end1_columns a ~key:(Schema.key_of schema a.end1) in
  let cols2 = Association.end2_columns a ~key:(Schema.key_of schema a.end2) in
  let expected = cols1 @ cols2 in
  let actual = Datum.Row.columns row in
  let* () =
    if List.sort String.compare expected = List.sort String.compare actual then Ok ()
    else
      fail "association %s tuple has columns {%s}, expected {%s}" a.name
        (String.concat "," actual) (String.concat "," expected)
  in
  let endpoint_exists ~etype cols =
    let key = Schema.key_of schema etype in
    let target = Datum.Row.of_list (List.map2 (fun k c -> (k, Datum.Row.get c row)) key cols) in
    if List.exists (Datum.Row.equal target) (key_values schema t ~etype) then Ok ()
    else fail "association %s references a missing %s entity %s" a.name etype (Datum.Row.show target)
  in
  let* () = endpoint_exists ~etype:a.end1 cols1 in
  endpoint_exists ~etype:a.end2 cols2

let check_multiplicity (a : Association.t) rows ~cols ~other_mult ~side =
  (* [cols] identify one end; [other_mult] bounds how many tuples each such
     end value may appear in. *)
  match other_mult with
  | Association.Many -> Ok ()
  | Association.One | Association.Zero_or_one ->
      let ends = List.map (fun r -> Datum.Row.project cols r) rows in
      let sorted = List.sort Datum.Row.compare ends in
      let rec dup = function
        | x :: (y :: _ as rest) -> if Datum.Row.equal x y then Some x else dup rest
        | [ _ ] | [] -> None
      in
      (match dup sorted with
      | Some k ->
          fail "association %s relates %s end %s to more than one partner" a.name side
            (Datum.Row.show k)
      | None -> Ok ())

let conforms schema t =
  let* () =
    Datum.Results.all_ok
      (fun set ->
        let es = entities t ~set in
        let* () = Datum.Results.all_ok (check_entity schema ~set) es in
        check_keys_unique ~set es schema)
      (sets t)
  in
  Datum.Results.all_ok
    (fun name ->
      let* a =
        match Schema.find_association schema name with
        | Some a -> Ok a
        | None -> fail "unknown association %s" name
      in
      let rows = links t ~assoc:name in
      let* () = Datum.Results.all_ok (check_link schema t a) rows in
      let cols1 = Association.end1_columns a ~key:(Schema.key_of schema a.end1) in
      let cols2 = Association.end2_columns a ~key:(Schema.key_of schema a.end2) in
      (* mult2 bounds partners per end1 value and vice versa. *)
      let* () = check_multiplicity a rows ~cols:cols1 ~other_mult:a.mult2 ~side:a.end1 in
      check_multiplicity a rows ~cols:cols2 ~other_mult:a.mult1 ~side:a.end2)
    (assocs t)

let equal a b =
  let norm_e m = M.filter_map (fun _ l -> match sort_uniq_entities l with [] -> None | l -> Some l) m in
  let norm_r m = M.filter_map (fun _ l -> match sort_uniq_rows l with [] -> None | l -> Some l) m in
  M.equal (List.equal equal_entity) (norm_e a.ents) (norm_e b.ents)
  && M.equal (List.equal Datum.Row.equal) (norm_r a.lnks) (norm_r b.lnks)

let pp fmt t =
  let pp_set fmt (set, es) =
    Format.fprintf fmt "  %s: %a" set
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") pp_entity)
      (sort_uniq_entities es)
  in
  let pp_assoc fmt (a, rows) =
    Format.fprintf fmt "  %s: %a" a
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") Datum.Row.pp)
      (sort_uniq_rows rows)
  in
  Format.fprintf fmt "@[<v>%a@,%a@]"
    (Format.pp_print_list pp_set) (M.bindings t.ents)
    (Format.pp_print_list pp_assoc) (M.bindings t.lnks)

