type cell = {
  assignment : (Query.Cond.t * bool) list;
  active : Mapping.Fragment.t list;
}

let max_atoms = 26

let atoms_of_table frags table =
  List.fold_left
    (fun acc (f : Mapping.Fragment.t) ->
      List.fold_left
        (fun acc atom -> if List.exists (Query.Cond.equal atom) acc then acc else acc @ [ atom ])
        acc
        (Query.Cond.atoms f.Mapping.Fragment.store_cond))
    []
    (Mapping.Fragments.on_table frags table)

let atom_column = function
  | Query.Cond.Is_null a | Query.Cond.Is_not_null a | Query.Cond.Cmp (a, _, _) -> Some a
  | Query.Cond.True | Query.Cond.False | Query.Cond.Is_of _ | Query.Cond.Is_of_only _
  | Query.Cond.And _ | Query.Cond.Or _ ->
      None

let eval_atom_on value = function
  | Query.Cond.Cmp (_, op, c) -> Query.Cond.eval_cmp op value c
  | Query.Cond.Is_null _ -> Datum.Value.is_null value
  | Query.Cond.Is_not_null _ -> not (Datum.Value.is_null value)
  | Query.Cond.True -> true
  | Query.Cond.False -> false
  | Query.Cond.Is_of _ | Query.Cond.Is_of_only _ | Query.Cond.And _ | Query.Cond.Or _ ->
      invalid_arg "Fullc.Cells: non-scalar atom"

(* Existence of one column value realizing the given atom valuations: some
   {!Query.Cover.candidates} value of the column's domain realizes them if
   any value does.  Exact for the store condition language. *)
let column_satisfiable domain valuations =
  let constants =
    List.filter_map
      (function Query.Cond.Cmp (_, _, v), _ -> Some v | _, _ -> None)
      valuations
  in
  List.exists
    (fun candidate ->
      List.for_all (fun (atom, expected) -> eval_atom_on candidate atom = expected) valuations)
    (Query.Cover.candidates domain ~nullable:true constants)

let assignment_satisfiable domain_of atoms mask =
  let valuations = List.mapi (fun i atom -> (atom, mask land (1 lsl i) <> 0)) atoms in
  let columns =
    List.sort_uniq String.compare (List.filter_map (fun (a, _) -> atom_column a) valuations)
  in
  if
    List.for_all
      (fun col ->
        column_satisfiable (domain_of col)
          (List.filter (fun (a, _) -> atom_column a = Some col) valuations))
      columns
  then Some valuations
  else None

(* Evaluate a store condition under an atom valuation. *)
let rec eval_cond valuations = function
  | Query.Cond.True -> true
  | Query.Cond.False -> false
  | Query.Cond.And (a, b) -> eval_cond valuations a && eval_cond valuations b
  | Query.Cond.Or (a, b) -> eval_cond valuations a || eval_cond valuations b
  | atom -> (
      match List.find_opt (fun (a, _) -> Query.Cond.equal a atom) valuations with
      | Some (_, b) -> b
      | None -> invalid_arg "Fullc.Cells: atom outside the table's atom space")

let fold env frags ~table ~init ~f =
  let store_table = Relational.Schema.find_table env.Query.Env.store table in
  let domain_of col = Option.bind store_table (fun t -> Relational.Table.domain_of t col) in
  let atoms = atoms_of_table frags table in
  let k = List.length atoms in
  if k > max_atoms then
    Error
      (Printf.sprintf
         "table %s has %d condition atoms: full cell partitioning over 2^%d valuations exceeds \
          the compiler's bound (%d)"
         table k k max_atoms)
  else
    let table_frags = Mapping.Fragments.on_table frags table in
    let acc = ref init in
    for mask = 0 to (1 lsl k) - 1 do
      match assignment_satisfiable domain_of atoms mask with
      | None -> ()
      | Some valuations ->
          let active =
            List.filter
              (fun (fr : Mapping.Fragment.t) ->
                eval_cond valuations fr.Mapping.Fragment.store_cond)
              table_frags
          in
          acc := f !acc { assignment = valuations; active }
    done;
    Ok !acc
