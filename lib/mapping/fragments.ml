module String_map = Map.Make (String)
module Int_map = Map.Make (Int)

(* A fragment's id is its place in document order: [of_list] numbers its
   list from 0, and [add] gives the next unused id.  Ids only grow, so
   ascending ids are document order. *)

(* The ids under each key, ascending.  [of_list] builds the index as two
   arrays sorted by key, which allocates no tree node; a later change binds
   the key's new group in [changed], whose binding shadows the arrays'. *)
type index = { keys : string array; groups : int array array; changed : int array String_map.t }

type t = {
  base : Fragment.t array;  (* [of_list]'s fragments, by id *)
  edits : Fragment.t option Int_map.t;
      (* the ids [add] gave, and those [remove] ([None]) or [replace]
         changed since [of_list] *)
  next : int;
  size : int;
  by_table : index;
  by_source : index;  (* by the name of the entity or association set *)
  by_type : index;  (* by each type the client condition names *)
}

(* -- indexes ------------------------------------------------------------- *)

(* Top-level, so that a lookup allocates no closure. *)
let rec search ix key lo hi =
  if lo >= hi then [||]
  else
    let mid = (lo + hi) / 2 in
    let c = String.compare key ix.keys.(mid) in
    if c = 0 then ix.groups.(mid)
    else if c < 0 then search ix key lo mid
    else search ix key (mid + 1) hi

let group ix key =
  match String_map.find key ix.changed with
  | ids -> ids
  | exception Not_found -> search ix key 0 (Array.length ix.keys)

let insert id ix key =
  let ids = group ix key in
  let n = Array.length ids in
  let at = ref n in
  while !at > 0 && ids.(!at - 1) > id do decr at done;
  if !at > 0 && ids.(!at - 1) = id then ix
  else
    let ids' =
      Array.init (n + 1) (fun i -> if i < !at then ids.(i) else if i = !at then id else ids.(i - 1))
    in
    { ix with changed = String_map.add key ids' ix.changed }

let delete id ix key =
  let ids = group ix key in
  if Array.mem id ids then
    let ids' = Array.of_list (List.filter (fun i -> i <> id) (Array.to_list ids)) in
    { ix with changed = String_map.add key ids' ix.changed }
  else ix

(* The index of [m] entries: entry [e] puts id [id e] under [key e], and the
   entries come in ascending id order.  One stable sort of the entries by
   key (a merge sort, whose scratch space is half the entries, where
   [Array.sort] allocates an exception per sift), then one array per run of
   equal keys; an entry that repeats the previous one's key and id adds
   nothing. *)
let build m ~key ~id =
  let order = Array.init m Fun.id in
  Array.stable_sort (fun a b -> String.compare (key a) (key b)) order;
  let same_key j = j > 0 && String.equal (key order.(j)) (key order.(j - 1)) in
  let repeat j = same_key j && id order.(j) = id order.(j - 1) in
  let runs = ref 0 in
  for j = 0 to m - 1 do
    if not (same_key j) then incr runs
  done;
  let keys = Array.make !runs "" and groups = Array.make !runs [||] in
  let j = ref 0 in
  for r = 0 to !runs - 1 do
    let start = !j and count = ref 1 in
    incr j;
    while !j < m && same_key !j do
      if not (repeat !j) then incr count;
      incr j
    done;
    let ids = Array.make !count 0 and n = ref 0 in
    for s = start to !j - 1 do
      if not (repeat s) then begin
        ids.(!n) <- id order.(s);
        incr n
      end
    done;
    keys.(r) <- key order.(start);
    groups.(r) <- ids
  done;
  { keys; groups; changed = String_map.empty }

let keys ix =
  let changed =
    String_map.fold (fun k ids acc -> if Array.length ids = 0 then acc else k :: acc) ix.changed []
  in
  let base =
    Array.fold_right
      (fun k acc -> if String_map.mem k ix.changed then acc else k :: acc)
      ix.keys []
  in
  List.merge String.compare base (List.rev changed)

(* -- the types a client condition names --------------------------------- *)

let rec count_types (c : Query.Cond.t) =
  match c with
  | Is_of _ | Is_of_only _ -> 1
  | And (a, b) | Or (a, b) -> count_types a + count_types b
  | True | False | Is_null _ | Is_not_null _ | Cmp _ -> 0

let rec put_types types ids id k (c : Query.Cond.t) =
  match c with
  | Is_of ty | Is_of_only ty ->
      types.(k) <- ty;
      ids.(k) <- id;
      k + 1
  | And (a, b) | Or (a, b) -> put_types types ids id (put_types types ids id k a) b
  | True | False | Is_null _ | Is_not_null _ | Cmp _ -> k

let named_types (f : Fragment.t) =
  let n = count_types f.client_cond in
  let types = Array.make n "" in
  ignore (put_types types (Array.make n 0) 0 0 f.client_cond);
  List.sort_uniq String.compare (Array.to_list types)

let source_name (f : Fragment.t) = match f.client_source with Set s | Assoc s -> s

(* -- the container ------------------------------------------------------- *)

let of_list l =
  let base = Array.of_list l in
  let n = Array.length base in
  let m = Array.fold_left (fun m (f : Fragment.t) -> m + count_types f.client_cond) 0 base in
  let types = Array.make m "" and type_ids = Array.make m 0 in
  let k = ref 0 in
  Array.iteri (fun id (f : Fragment.t) -> k := put_types types type_ids id !k f.client_cond) base;
  {
    base;
    edits = Int_map.empty;
    next = n;
    size = n;
    by_table = build n ~key:(fun i -> base.(i).Fragment.table) ~id:Fun.id;
    by_source = build n ~key:(fun i -> source_name base.(i)) ~id:Fun.id;
    by_type = build m ~key:(fun e -> types.(e)) ~id:(fun e -> type_ids.(e));
  }

let empty = of_list []

let get t id =
  match Int_map.find id t.edits with
  | Some f -> f
  | None -> invalid_arg "Mapping.Fragments: removed fragment"
  | exception Not_found -> t.base.(id)

let fold_right f t acc =
  let rec go id acc =
    if id < 0 then acc
    else
      go (id - 1)
        (match Int_map.find id t.edits with
        | Some g -> f g acc
        | None -> acc
        | exception Not_found -> f t.base.(id) acc)
  in
  go (t.next - 1) acc

let to_list t = fold_right List.cons t []
let size t = t.size
let rec fragments_below t ids i acc =
  if i < 0 then acc else fragments_below t ids (i - 1) (get t ids.(i) :: acc)

let fragments t ids = fragments_below t ids (Array.length ids - 1) []

(* [t] with id [id] holding [f], which is not in [t]'s indexes yet. *)
let index_in id (f : Fragment.t) t =
  {
    t with
    by_table = insert id t.by_table f.table;
    by_source = insert id t.by_source (source_name f);
    by_type = List.fold_left (insert id) t.by_type (named_types f);
  }

let index_out id (f : Fragment.t) t =
  {
    t with
    by_table = delete id t.by_table f.table;
    by_source = delete id t.by_source (source_name f);
    by_type = List.fold_left (delete id) t.by_type (named_types f);
  }

let add f t =
  index_in t.next f
    { t with edits = Int_map.add t.next (Some f) t.edits; next = t.next + 1; size = t.size + 1 }

let remove f t =
  Array.fold_left
    (fun t id ->
      let g = get t id in
      if Fragment.equal f g then
        index_out id g { t with edits = Int_map.add id None t.edits; size = t.size - 1 }
      else t)
    t (group t.by_table f.table)

(* Id [id], holding [old], rewritten to [f]: only the keys that differ move. *)
let rewrite id ~(old : Fragment.t) (f : Fragment.t) t =
  let t = { t with edits = Int_map.add id (Some f) t.edits } in
  let moved key ix ~was ~is =
    if String.equal (key was) (key is) then ix else insert id (delete id ix (key was)) (key is)
  in
  let by_type =
    if old.client_cond == f.client_cond then t.by_type
    else
      let before = named_types old and after = named_types f in
      List.fold_left (insert id)
        (List.fold_left (delete id) t.by_type
           (List.filter (fun ty -> not (List.mem ty after)) before))
        (List.filter (fun ty -> not (List.mem ty before)) after)
  in
  {
    t with
    by_table = moved (fun (g : Fragment.t) -> g.table) t.by_table ~was:old ~is:f;
    by_source = moved source_name t.by_source ~was:old ~is:f;
    by_type;
  }

let replace old f t =
  if f == old then t
  else
    match Array.find_opt (fun id -> get t id == old) (group t.by_table old.Fragment.table) with
    | Some id -> rewrite id ~old f t
    | None -> invalid_arg "Mapping.Fragments.replace: not a fragment of the set"

(* -- lookups ------------------------------------------------------------- *)

let on_table t table = fragments t (group t.by_table table)

(* An entity set and an association set may share a name. *)
let of_source t name ~set =
  Array.fold_right
    (fun id acc ->
      let f = get t id in
      match f.client_source with
      | Set _ when set -> f :: acc
      | Assoc _ when not set -> f :: acc
      | Set _ | Assoc _ -> acc)
    (group t.by_source name) []

let of_set t set = of_source t set ~set:true
let of_assoc t a = of_source t a ~set:false

let assoc_fragment t a =
  match of_assoc t a with
  | [ f ] -> Ok f
  | [] -> Error (Printf.sprintf "association %s has no mapping fragment" a)
  | _ -> Error (Printf.sprintf "association %s has several mapping fragments" a)
let tables t = keys t.by_table

let naming t types =
  match types with
  | [ ty ] -> fragments t (group t.by_type ty)
  | types ->
      List.map (get t)
        (List.sort_uniq Int.compare
           (List.concat_map (fun ty -> Array.to_list (group t.by_type ty)) types))

let column_used t ~table col =
  Array.exists (fun id -> Fragment.mem_col (get t id) col) (group t.by_table table)

let related env client store t = List.for_all (Fragment.holds env client store) (to_list t)

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let well_formed env t =
  let* () = Datum.Results.all_ok (Fragment.well_formed env) (to_list t) in
  (* Every association fragment names a client association, and
     [associations] ascends by name. *)
  match
    List.find_opt
      (fun (a : Edm.Association.t) -> List.compare_length_with (of_assoc t a.name) 1 > 0)
      (Edm.Schema.associations env.Query.Env.client)
  with
  | Some a -> fail "association set %s is mentioned by more than one fragment" a.name
  | None -> Ok ()

let equal a b =
  let a = to_list a and b = to_list b in
  List.length a = List.length b
  && List.for_all (fun f -> List.exists (Fragment.equal f) b) a
  && List.for_all (fun f -> List.exists (Fragment.equal f) a) b

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list (fun fmt f -> Format.fprintf fmt "• %a" Fragment.pp f))
    (to_list t)
