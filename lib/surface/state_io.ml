(* One pass each way: [save] prints every section and term entry straight
   into a chunked writer, and [load] walks a cursor over the text, decoding
   each entry, fragment and view as it reads it.  No s-expression tree is
   built in either direction. *)

(* -- the writer ---------------------------------------------------------------------- *)

(* The document goes into fixed chunks, copied once into a string of its
   exact length by [contents]: a [Buffer] would copy its storage each time it
   doubles, and once more at the end. *)
type writer = {
  mutable chunk : Bytes.t;
  mutable used : int;             (* bytes of [chunk] written *)
  mutable full : Bytes.t list;    (* the chunks before [chunk], last first *)
}

let chunk_size = 65536
let writer () = { chunk = Bytes.create chunk_size; used = 0; full = [] }
let chunks w = List.length w.full + 1

let next_chunk w =
  w.full <- w.chunk :: w.full;
  w.chunk <- Bytes.create chunk_size;
  w.used <- 0

let add_char w ch =
  if w.used = chunk_size then next_chunk w;
  Bytes.unsafe_set w.chunk w.used ch;
  w.used <- w.used + 1

(* [s.[i .. i + n - 1]], across as many chunks as it fills. *)
let rec add_sub w s i n =
  if n > 0 then (
    if w.used = chunk_size then next_chunk w;
    let k = min n (chunk_size - w.used) in
    Bytes.blit_string s i w.chunk w.used k;
    w.used <- w.used + k;
    add_sub w s (i + k) (n - k))

let add_string w s = add_sub w s 0 (String.length s)

let contents w =
  let n = ((chunks w - 1) * chunk_size) + w.used in
  let out = Bytes.create n in
  Bytes.blit w.chunk 0 out (n - w.used) w.used;
  List.iteri (fun i c -> Bytes.blit c 0 out (n - w.used - ((i + 1) * chunk_size)) chunk_size) w.full;
  Bytes.unsafe_to_string out

(* -- writing ------------------------------------------------------------------------------ *)

(* The bytes the reader stops a bare atom at. *)
let delimiter = function ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> true | _ -> false

(* Whether [s.[i ..]] holds no delimiter. *)
let rec plain s i = i >= String.length s || ((not (delimiter s.[i])) && plain s (i + 1))

(* An atom is quoted iff it is empty or holds a delimiter; inside quotes,
   double quote, backslash and LF are escaped. *)
let add_atom b s =
  if s <> "" && plain s 0 then add_string b s
  else (
    add_char b '"';
    String.iter
      (function
        | '"' -> add_string b "\\\""
        | '\\' -> add_string b "\\\\"
        | '\n' -> add_string b "\\n"
        | c -> add_char b c)
      s;
    add_char b '"')

(* The writers below take the buffer first and print one element each; none
   builds a string or a closure per element, since [save] prints thousands. *)
let close b = add_char b ')'

(* [" " ^ x] for each [x] of [l]. *)
let rec add_args b add = function
  | [] -> ()
  | x :: rest ->
      add_char b ' ';
      add b x;
      add_args b add rest

let add_list b add l =
  add_char b '(';
  (match l with [] -> () | x :: rest -> add b x; add_args b add rest);
  close b

let add_atoms b l = add_list b add_atom l
let add_arg b add x = add_char b ' '; add b x

(* [(head] and [(head s]; the caller closes the list. *)
let add_head b head = add_char b '('; add_string b head
let add_named b head s = add_head b head; add_arg b add_atom s

(* The decimal digits of [k >= 0], without building a string. *)
let rec add_digits b k =
  if k >= 10 then add_digits b (k / 10);
  add_char b (Char.unsafe_chr (48 + (k mod 10)))

let add_reference b k = add_char b '#'; add_digits b k
let add_refs b head x y = add_head b head; add_arg b add_reference x; add_arg b add_reference y

let add_value b = function
  | Datum.Value.Null -> add_string b "null"
  | Datum.Value.Int i -> add_named b "int" (string_of_int i); close b
  | Datum.Value.String s -> add_named b "str" s; close b
  | Datum.Value.Bool v -> add_string b (if v then "(bool true)" else "(bool false)")
  | Datum.Value.Decimal f -> add_named b "dec" (Printf.sprintf "%h" f); close b

let add_domain b = function
  | Datum.Domain.Int -> add_string b "int"
  | Datum.Domain.String -> add_string b "string"
  | Datum.Domain.Bool -> add_string b "bool"
  | Datum.Domain.Decimal -> add_string b "decimal"
  | Datum.Domain.Enum values -> add_head b "enum"; add_args b add_atom values; close b

let cmp_to_string = function
  | Query.Cond.Eq -> "=" | Query.Cond.Neq -> "<>" | Query.Cond.Lt -> "<"
  | Query.Cond.Le -> "<=" | Query.Cond.Gt -> ">" | Query.Cond.Ge -> ">="

(* -- the term table --------------------------------------------------------------- *)

(* Every condition, query and constructor node is a term.  [save] interns each
   distinct node once, children first, so an entry's children are
   back-references [#k] to earlier entries. *)

(* A node with its children replaced by their indices in the table, so two
   nodes are structurally equal iff their keys are equal.  Leaves are kept
   whole. *)
type key =
  | Cond_atom of Query.Cond.t
  | And of int * int
  | Or of int * int
  | Scan of Query.Algebra.source
  | Select of int * int
  | Project of Query.Algebra.proj_item list * int
  | Join of Query.Join.kind * int * int * string list
  | Union of int * int
  | Ctor_leaf of Query.Ctor.t
  | If of int * int * int

let add_item b = function
  | Query.Algebra.Col { src; dst } -> add_named b "col" src; add_arg b add_atom dst; close b
  | Query.Algebra.Const { value; dst } ->
      add_head b "const"; add_arg b add_value value; add_arg b add_atom dst; close b
  | Query.Algebra.Coalesce { srcs; dst } ->
      add_head b "coalesce"; add_arg b add_atoms srcs; add_arg b add_atom dst; close b

let not_a_leaf () = invalid_arg "State_io: a term with children is not a leaf"

(* A table entry: [(head arg ..)], or [true] / [false]. *)
let add_entry b = function
  | Cond_atom Query.Cond.True -> add_string b "true"
  | Cond_atom Query.Cond.False -> add_string b "false"
  | key ->
      (match key with
      | Cond_atom (Query.Cond.Is_of e) -> add_named b "isof" e
      | Cond_atom (Query.Cond.Is_of_only e) -> add_named b "isofonly" e
      | Cond_atom (Query.Cond.Is_null a) -> add_named b "isnull" a
      | Cond_atom (Query.Cond.Is_not_null a) -> add_named b "notnull" a
      | Cond_atom (Query.Cond.Cmp (a, op, v)) ->
          add_named b "cmp" a; add_arg b add_string (cmp_to_string op); add_arg b add_value v
      | Cond_atom (Query.Cond.True | Query.Cond.False | Query.Cond.And _ | Query.Cond.Or _) -> not_a_leaf ()
      | And (x, y) -> add_refs b "and" x y
      | Or (x, y) -> add_refs b "or" x y
      | Scan (Query.Algebra.Entity_set s) -> add_head b "scan "; add_named b "set" s; close b
      | Scan (Query.Algebra.Assoc_set s) -> add_head b "scan "; add_named b "assoc" s; close b
      | Scan (Query.Algebra.Table s) -> add_head b "scan "; add_named b "table" s; close b
      | Select (c, q) -> add_refs b "select" c q
      | Project (items, q) -> add_head b "project "; add_list b add_item items; add_arg b add_reference q
      | Join (kind, l, r, on) ->
          let head = match kind with Query.Join.Inner -> "join" | Left -> "loj" | Full -> "foj" in
          add_refs b head l r; add_arg b add_atoms on
      | Union (l, r) -> add_refs b "union" l r
      | Ctor_leaf (Query.Ctor.Entity { etype; attrs }) -> add_named b "entity" etype; add_arg b add_atoms attrs
      | Ctor_leaf (Query.Ctor.If _) -> not_a_leaf ()
      | If (c, x, y) -> add_refs b "if" c x; add_arg b add_reference y);
      close b

(* The interned terms so far, each new one printed to [out] on its own line
   as it is interned; [visits] counts the nodes the encoder looked up. *)
type interned = {
  out : writer;
  ids : (key, int) Hashtbl.t;
  mutable count : int;
  mutable visits : int;
}

(* The index of the node [key], a new entry if no equal node came before. *)
let intern tbl key =
  tbl.visits <- tbl.visits + 1;
  match Hashtbl.find_opt tbl.ids key with
  | Some k -> k
  | None ->
      let k = tbl.count in
      Hashtbl.add tbl.ids key k;
      add_string tbl.out "\n  ";
      add_entry tbl.out key;
      tbl.count <- k + 1;
      k

type encoder = {
  terms : interned;
  cond_ref : Query.Cond.t -> int;
  query_ref : Query.Algebra.t -> int;
  ctor_ref : Query.Ctor.t -> int;
}

(* The views form a DAG, so each reference function is memoized on physical
   identity: a subterm shared by many views is walked once, not once per
   occurrence.  A node reached again had all its subterms interned on its
   first visit, so skipping it adds no entry and the table order is the
   tree walk's.  Children are bound with [let] before building a key, so they
   are interned left to right, which fixes that order. *)
let encoder out =
  let terms = { out; ids = Hashtbl.create 4096; count = 0; visits = 0 } in
  let cond_ref =
    Query.Cond.Memo.fix (Query.Cond.Memo.create ()) (fun cond_ref c ->
        intern terms
          (match c with
          | Query.Cond.And (a, b) ->
              let a = cond_ref a in
              let b = cond_ref b in
              And (a, b)
          | Query.Cond.Or (a, b) ->
              let a = cond_ref a in
              let b = cond_ref b in
              Or (a, b)
          | atom -> Cond_atom atom))
  in
  let query_ref =
    Query.Algebra.Memo.fix (Query.Algebra.Memo.create ()) (fun query_ref q ->
        intern terms
          (match q with
          | Query.Algebra.Scan src -> Scan src
          | Query.Algebra.Select (c, q) ->
              let c = cond_ref c in
              let q = query_ref q in
              Select (c, q)
          | Query.Algebra.Project (items, q) -> Project (items, query_ref q)
          | Query.Algebra.Join (kind, l, r, on) ->
              let l = query_ref l in
              let r = query_ref r in
              Join (kind, l, r, on)
          | Query.Algebra.Union_all (l, r) ->
              let l = query_ref l in
              let r = query_ref r in
              Union (l, r)))
  in
  let ctor_ref =
    Query.Ctor.Memo.fix (Query.Ctor.Memo.create ()) (fun ctor_ref k ->
        intern terms
          (match k with
          | Query.Ctor.If (c, a, b) ->
              let c = cond_ref c in
              let a = ctor_ref a in
              let b = ctor_ref b in
              If (c, a, b)
          | leaf -> Ctor_leaf leaf))
  in
  { terms; cond_ref; query_ref; ctor_ref }

(* -- writing schemas, fragments and views ------------------------------------------ *)

let mult_to_string = function
  | Edm.Association.One -> "one"
  | Edm.Association.Zero_or_one -> "zero_or_one"
  | Edm.Association.Many -> "many"

(* [(a x)], the atom [a] paired with [x]. *)
let add_pair add b (a, x) = add_char b '('; add_atom b a; add_arg b add x; close b

let add_etype b (e : Edm.Entity_type.t) =
  add_named b "type" e.name;
  (match e.parent with None -> add_string b " _" | Some p -> add_arg b add_atom p);
  add_arg b (fun b -> add_list b (add_pair add_domain)) e.declared;
  add_arg b add_atoms e.key;
  add_arg b add_atoms e.non_null;
  close b

let add_client b item client =
  List.iter (fun e -> item (); add_etype b e) (Edm.Schema.types client);
  List.iter
    (fun (set, root) -> item (); add_named b "eset" set; add_arg b add_atom root; close b)
    (Edm.Schema.entity_sets client);
  List.iter
    (fun (a : Edm.Association.t) ->
      item ();
      add_named b "rel" a.name;
      add_args b add_atom [ a.end1; a.end2; mult_to_string a.mult1; mult_to_string a.mult2 ];
      close b)
    (Edm.Schema.associations client)

let add_table b (t : Relational.Table.t) =
  let column b (c : Relational.Table.column) =
    add_char b '(';
    add_atom b c.cname;
    add_arg b add_domain c.domain;
    add_string b (if c.nullable then " true)" else " false)")
  in
  let fk b (fk : Relational.Table.foreign_key) =
    add_char b '(';
    add_atoms b fk.fk_columns;
    add_arg b add_atom fk.ref_table;
    add_arg b add_atoms fk.ref_columns;
    close b
  in
  add_named b "table" t.name;
  add_arg b (fun b -> add_list b column) t.columns;
  add_arg b add_atoms t.key;
  add_arg b (fun b -> add_list b fk) t.fks;
  close b

(* [(frag (set S) #i ((a c) ..) T #j)], or [(assoc A)] for the source. *)
let add_fragment b enc (f : Mapping.Fragment.t) =
  (match f.client_source with
  | Mapping.Fragment.Set s -> add_named b "frag (set" s
  | Mapping.Fragment.Assoc a -> add_named b "frag (assoc" a);
  close b;
  add_arg b add_reference (enc.cond_ref f.client_cond);
  add_arg b (fun b -> add_list b (add_pair add_atom)) f.pairs;
  add_arg b add_atom f.table;
  add_arg b add_reference (enc.cond_ref f.store_cond);
  close b

(* The document is [(state (client ..) (store ..) (terms ..) (fragments ..)
   (query_views ..) (update_views ..))], laid out with one field per line and
   one element of a field per line, so it diffs line by line.  The terms
   section is printed while the encoder interns the fragments' conditions
   and the views, in document order; the sections after it then find every
   reference in the encoder's memo tables. *)
let save (st : Core.State.t) =
  Obs.Span.with_ ~name:"surface.io.encode" @@ fun () ->
  let b = writer () in
  let item () = add_string b "\n  " in
  let section name items = add_string b "\n ("; add_string b name; items (); close b in
  let enc = encoder b in
  let fragments = Mapping.Fragments.to_list st.fragments in
  let entity_views = Query.View.entity_view_bindings st.query_views in
  let assoc_views = Query.View.assoc_view_bindings st.query_views in
  let update_views = Query.View.update_view_bindings st.update_views in
  (* [(kind name v)]: an entity view's [v] is [(view #q #c)], an
     association or update view's its query [#q]. *)
  let bindings kind add =
    List.iter (fun (name, v) -> item (); add_named b kind name; add_arg b add v; close b)
  in
  let view b (v : Query.View.t) = add_refs b "view" (enc.query_ref v.query) (enc.ctor_ref v.ctor); close b in
  let query b q = add_reference b (enc.query_ref q) in
  add_string b "(state";
  section "client" (fun () -> add_client b item st.env.client);
  section "store" (fun () -> List.iter (fun t -> item (); add_table b t) (Relational.Schema.tables st.env.store));
  (* Interning order is document order: fragments, query views, update views. *)
  section "terms" (fun () ->
      List.iter
        (fun (f : Mapping.Fragment.t) -> ignore (enc.cond_ref f.client_cond); ignore (enc.cond_ref f.store_cond))
        fragments;
      List.iter
        (fun (_, (v : Query.View.t)) -> ignore (enc.query_ref v.query); ignore (enc.ctor_ref v.ctor))
        entity_views;
      List.iter (List.iter (fun (_, q) -> ignore (enc.query_ref q))) [ assoc_views; update_views ]);
  section "fragments" (fun () -> List.iter (fun f -> item (); add_fragment b enc f) fragments);
  section "query_views" (fun () ->
      bindings "for_entity" view entity_views;
      bindings "for_assoc" query assoc_views);
  section "update_views" (fun () -> bindings "for_table" query update_views);
  add_string b ")\n";
  let text = contents b in
  Obs.Span.tag "bytes" (String.length text);
  Obs.Span.tag "chunks" (chunks b);
  Obs.Span.tag "terms" enc.terms.count;
  Obs.Span.tag "visits" enc.terms.visits;
  text

(* -- reading ------------------------------------------------------------------------------ *)

(* The reader's only exception: the offset it stopped at and why.  [load]
   turns it into [Error]. *)
exception Malformed of int * string

(* -- the atom table ---------------------------------------------------------------- *)

(* The distinct atoms read so far, each allocated once: an open-addressing
   table with linear probing, keyed by the atom's bytes.  A lookup hashes and
   compares the byte range where it lies, so reading an atom seen before
   allocates nothing, and equal atoms of the loaded state are one string.
   [load] makes one per call.  An empty slot holds [""], which is never
   stored: the empty atom is the literal. *)
type atoms = { mutable slots : string array; mutable count : int }

(* The customer document holds about one distinct atom per 120 bytes, so
   [length / 64] slots keep it under half full without growing. *)
let atoms_for text =
  let rec size n = if 64 * n >= String.length text then n else size (2 * n) in
  { slots = Array.make (size 64) ""; count = 0 }

(* FNV-1a over [s.[i .. j - 1]]. *)
let rec hash s i j h =
  if i >= j then h lxor (h lsr 32) else hash s (i + 1) j ((h lxor Char.code (String.unsafe_get s i)) * 16777619)

(* Whether [s.[i + k .. i + n - 1]] is [a.[k ..]], [a] of length [n]. *)
let rec same s i n a k = k >= n || (String.unsafe_get s (i + k) = String.unsafe_get a k && same s i n a (k + 1))

(* The slot of [s.[i .. i + n - 1]], [n > 0]: the one holding it, or the empty
   one where it goes.  Every helper takes all it reads as arguments, so a
   lookup builds no closure. *)
let rec probe slots s i n p =
  let a = Array.unsafe_get slots p in
  if String.length a = 0 || (String.length a = n && same s i n a 0) then p
  else probe slots s i n ((p + 1) land (Array.length slots - 1))

let slot slots s i n = probe slots s i n (hash s i (i + n) 0x811c9dc5 land (Array.length slots - 1))

(* [a], a new atom, stored in the empty slot [p]; the table doubles when it
   is half full. *)
let store atoms p a =
  atoms.slots.(p) <- a;
  atoms.count <- atoms.count + 1;
  if 2 * atoms.count > Array.length atoms.slots then (
    let slots = Array.make (2 * Array.length atoms.slots) "" in
    Array.iter (fun a -> if a <> "" then slots.(slot slots a 0 (String.length a)) <- a) atoms.slots;
    atoms.slots <- slots);
  a

(* The atom [s.[i .. j - 1]], copied out of [s] only the first time. *)
let atom_of atoms s i j =
  if j = i then ""
  else
    let p = slot atoms.slots s i (j - i) in
    let a = atoms.slots.(p) in
    if a <> "" then a else store atoms p (String.sub s i (j - i))

(* -- the cursor ------------------------------------------------------------------------ *)

type cursor = { text : string; mutable pos : int; atoms : atoms }

let fail c msg = raise (Malformed (c.pos, msg))
let failf c fmt = Printf.ksprintf (fail c) fmt

let rec skip_ws c =
  if c.pos < String.length c.text then
    match c.text.[c.pos] with
    | ' ' | '\t' | '\n' | '\r' -> c.pos <- c.pos + 1; skip_ws c
    | ';' ->
        (* comment to end of line *)
        while c.pos < String.length c.text && c.text.[c.pos] <> '\n' do c.pos <- c.pos + 1 done;
        skip_ws c
    | _ -> ()

(* The next byte after blanks and comments; the document never ends where
   the reader looks. *)
let look c =
  skip_ws c;
  if c.pos >= String.length c.text then fail c "unexpected end of input";
  c.text.[c.pos]

let expect c ch =
  if look c <> ch then failf c "expected %C" ch;
  c.pos <- c.pos + 1

(* Consumes a [)] if one is next. *)
let at_close c = look c = ')' && (c.pos <- c.pos + 1; true)

(* A quoted atom, from its opening quote.  One without escapes is looked up
   where it lies in the text; one with escapes is unescaped first. *)
let quoted c =
  let text = c.text and start = c.pos + 1 in
  let n = String.length text in
  let p = ref start and escapes = ref 0 in
  while !p < n && text.[!p] <> '"' do
    if text.[!p] = '\\' then (incr escapes; incr p);
    incr p
  done;
  if !p >= n then (
    c.pos <- n;
    fail c (if !p > n then "unterminated escape" else "unterminated string"));
  let stop = !p in
  c.pos <- stop + 1;
  if !escapes = 0 then atom_of c.atoms text start stop
  else
    let b = Bytes.create (stop - start - !escapes) in
    let rec unescape i k =
      if i < stop then
        if text.[i] = '\\' then (
          Bytes.set b k (match text.[i + 1] with 'n' -> '\n' | e -> e);
          unescape (i + 2) (k + 1))
        else (Bytes.set b k text.[i]; unescape (i + 1) (k + 1))
    in
    unescape start 0;
    atom_of c.atoms (Bytes.unsafe_to_string b) 0 (Bytes.length b)

(* The end of the bare atom starting at [c.pos]. *)
let bare_end c =
  let p = ref c.pos in
  while !p < String.length c.text && not (delimiter c.text.[!p]) do incr p done;
  !p

let atom c =
  match look c with
  | '(' | ')' -> fail c "expected an atom"
  | '"' -> quoted c
  | _ ->
      let start = c.pos in
      c.pos <- bare_end c;
      atom_of c.atoms c.text start c.pos

(* The head atom of a list, after its [(]. *)
let head c = expect c '('; atom c

(* The elements up to the closing parenthesis of the current list. *)
let rec until_close c f =
  if at_close c then []
  else
    let x = f c in
    x :: until_close c f

let atoms c = expect c '('; until_close c atom

(* [(name ..)]: [f] reads the arguments, then the list must close. *)
let field c name f =
  let h = head c in
  if h <> name then failf c "expected (%s ..), got (%s .." name h;
  let x = f c in
  expect c ')';
  x

(* [(x y)], read by [first] and [second]. *)
let pair first second c =
  expect c '(';
  let x = first c in
  let y = second c in
  expect c ')';
  (x, y)

let bool c = match atom c with "true" -> true | "false" -> false | a -> failf c "not a bool: %s" a

let value c =
  if look c <> '(' then match atom c with "null" -> Datum.Value.Null | a -> failf c "bad value %s" a
  else
    let h = head c in
    let a = atom c in
    expect c ')';
    match h with
    | "str" -> Datum.Value.String a
    | "int" -> (
        match int_of_string a with i -> Datum.Value.Int i | exception Failure _ -> failf c "bad value (%s %s)" h a)
    | "bool" when a = "true" -> Datum.Value.Bool true
    | "bool" when a = "false" -> Datum.Value.Bool false
    | "dec" -> (
        match float_of_string a with
        | f -> Datum.Value.Decimal f
        | exception Failure _ -> failf c "bad value (%s %s)" h a)
    | _ -> failf c "bad value (%s %s)" h a

let domain c =
  if look c = '(' then
    match head c with "enum" -> Datum.Domain.Enum (until_close c atom) | h -> failf c "bad domain (%s .." h
  else
    match atom c with
    | "int" -> Datum.Domain.Int
    | "string" -> Datum.Domain.String
    | "bool" -> Datum.Domain.Bool
    | "decimal" -> Datum.Domain.Decimal
    | a -> failf c "bad domain %s" a

(* -- reading terms ------------------------------------------------------------------- *)

type term = Cond of Query.Cond.t | Query of Query.Algebra.t | Ctor of Query.Ctor.t

let sort_name = function Cond _ -> "condition" | Query _ -> "query" | Ctor _ -> "constructor"

(* The entries decoded so far, in [terms.(0 .. len - 1)]; [#k] may name only
   those. *)
type table = { mutable terms : term array; mutable len : int }

let push tbl t =
  if tbl.len = Array.length tbl.terms then (
    let grown = Array.make (2 * tbl.len) t in
    Array.blit tbl.terms 0 grown 0 tbl.len;
    tbl.terms <- grown);
  tbl.terms.(tbl.len) <- t;
  tbl.len <- tbl.len + 1

let true_ = Cond Query.Cond.True
let false_ = Cond Query.Cond.False

(* The entry the reference [s.[i .. j-1]] names: [#] and at most nine
   digits, so the index cannot overflow. *)
let resolve c tbl s i j =
  if j - i < 2 || j - i > 10 then failf c "bad reference %s" (String.sub s i (j - i));
  let k = ref 0 in
  for p = i + 1 to j - 1 do
    match s.[p] with
    | '0' .. '9' as d -> k := (10 * !k) + Char.code d - 48
    | _ -> failf c "bad reference %s" (String.sub s i (j - i))
  done;
  if !k >= tbl.len then failf c "no earlier term for %s" (String.sub s i (j - i));
  tbl.terms.(!k)

(* An atom where a term may stand: a back-reference, [true] or [false]. *)
let is_word s i j w = j - i = String.length w && same s i (j - i) w 0

let word c tbl s i j =
  if j > i && s.[i] = '#' then resolve c tbl s i j
  else if is_word s i j "true" then true_
  else if is_word s i j "false" then false_
  else failf c "bad term %s" (String.sub s i (j - i))

let item c =
  let x =
    match head c with
    | "col" ->
        let src = atom c in
        Query.Algebra.Col { src; dst = atom c }
    | "const" ->
        let value = value c in
        Query.Algebra.Const { value; dst = atom c }
    | "coalesce" ->
        let srcs = atoms c in
        Query.Algebra.Coalesce { srcs; dst = atom c }
    | h -> failf c "bad projection item (%s .." h
  in
  expect c ')';
  x

(* [(set s)], [(assoc a)] or [(table t)]. *)
let source c =
  let h = head c in
  let s = atom c in
  expect c ')';
  match h with
  | "set" -> Query.Algebra.Entity_set s
  | "assoc" -> Query.Algebra.Assoc_set s
  | "table" -> Query.Algebra.Table s
  | h -> failf c "bad source (%s .." h

let wrong_sort c t expected = failf c "a %s where a %s is expected" (sort_name t) expected

(* A term, inline or as an atom.  A bare reference is resolved in place,
   without copying it out. *)
let rec term c tbl =
  match look c with
  | '(' ->
      let t = inline c tbl (head c) in
      expect c ')';
      t
  | ')' -> fail c "expected a term"
  | '"' ->
      let s = quoted c in
      word c tbl s 0 (String.length s)
  | _ ->
      let stop = bare_end c in
      let t = word c tbl c.text c.pos stop in
      c.pos <- stop;
      t

(* The arguments of an inline term whose head is given, children left to
   right. *)
and inline c tbl h =
  match h with
  | "isof" -> Cond (Query.Cond.Is_of (atom c))
  | "isofonly" -> Cond (Query.Cond.Is_of_only (atom c))
  | "isnull" -> Cond (Query.Cond.Is_null (atom c))
  | "notnull" -> Cond (Query.Cond.Is_not_null (atom c))
  | "cmp" ->
      let a = atom c in
      let op =
        match atom c with
        | "=" -> Query.Cond.Eq | "<>" -> Query.Cond.Neq | "<" -> Query.Cond.Lt
        | "<=" -> Query.Cond.Le | ">" -> Query.Cond.Gt | ">=" -> Query.Cond.Ge
        | s -> failf c "bad comparison %s" s
      in
      Cond (Query.Cond.Cmp (a, op, value c))
  | "and" ->
      let a = cond c tbl in
      Cond (Query.Cond.And (a, cond c tbl))
  | "or" ->
      let a = cond c tbl in
      Cond (Query.Cond.Or (a, cond c tbl))
  | "scan" -> Query (Query.Algebra.Scan (source c))
  | "select" ->
      let p = cond c tbl in
      Query (Query.Algebra.Select (p, query c tbl))
  | "project" ->
      expect c '(';
      let items = until_close c item in
      Query (Query.Algebra.Project (items, query c tbl))
  | "join" | "loj" | "foj" ->
      let l = query c tbl in
      let r = query c tbl in
      let on = atoms c in
      let kind = match h with "join" -> Query.Join.Inner | "loj" -> Left | _ -> Full in
      Query (Query.Algebra.Join (kind, l, r, on))
  | "union" ->
      let l = query c tbl in
      Query (Query.Algebra.Union_all (l, query c tbl))
  | "entity" ->
      let etype = atom c in
      Ctor (Query.Ctor.Entity { etype; attrs = atoms c })
  | "if" ->
      let p = cond c tbl in
      let a = ctor c tbl in
      Ctor (Query.Ctor.If (p, a, ctor c tbl))
  | h -> failf c "bad term (%s .." h

and cond c tbl = match term c tbl with Cond x -> x | t -> wrong_sort c t "condition"
and query c tbl = match term c tbl with Query q -> q | t -> wrong_sort c t "query"
and ctor c tbl = match term c tbl with Ctor k -> k | t -> wrong_sort c t "constructor"

(* -- reading schemas, fragments and views --------------------------------------------- *)

(* A schema builder's result; its error names the declaration it refuses,
   which the offset already locates. *)
let ok c = function Ok x -> x | Error (_, e) -> fail c e

let mult c = function
  | "one" -> Edm.Association.One
  | "zero_or_one" -> Edm.Association.Zero_or_one
  | "many" -> Edm.Association.Many
  | s -> failf c "bad multiplicity %s" s

(* The client field lists types, entity sets and associations, in the
   document order [Edm.Schema.of_declarations] builds the schema in. *)
let client c =
  let types = ref [] and sets = ref [] and rels = ref [] in
  while not (at_close c) do
    (match head c with
    | "type" ->
        let name = atom c in
        let parent = match atom c with "_" -> None | p -> Some p in
        expect c '(';
        let declared = until_close c (pair atom domain) in
        let key = atoms c in
        types := { Edm.Entity_type.name; parent; declared; key; non_null = atoms c } :: !types
    | "eset" ->
        let set = atom c in
        sets := (set, atom c) :: !sets
    | "rel" ->
        let name = atom c in
        let end1 = atom c in
        let end2 = atom c in
        let mult1 = mult c (atom c) in
        rels := { Edm.Association.name; end1; end2; mult1; mult2 = mult c (atom c) } :: !rels
    | h -> failf c "bad client field (%s .." h);
    expect c ')'
  done;
  ok c (Edm.Schema.of_declarations (List.rev !types) ~sets:(List.rev !sets) (List.rev !rels))

let store c =
  let column c =
    expect c '(';
    let cname = atom c in
    let domain = domain c in
    let nullable = bool c in
    expect c ')';
    { Relational.Table.cname; domain; nullable }
  in
  let fk c =
    expect c '(';
    let fk_columns = atoms c in
    let ref_table = atom c in
    let ref_columns = atoms c in
    expect c ')';
    { Relational.Table.fk_columns; ref_table; ref_columns }
  in
  let table c =
    let name = atom c in
    expect c '(';
    let columns = until_close c column in
    let key = atoms c in
    expect c '(';
    { Relational.Table.name; columns; key; fks = until_close c fk }
  in
  ok c (Relational.Schema.of_tables (until_close c (fun c -> field c "table" table)))

let fragment c tbl =
  field c "frag" (fun c ->
      let client_source =
        match source c with
        | Query.Algebra.Entity_set s -> Mapping.Fragment.Set s
        | Query.Algebra.Assoc_set a -> Mapping.Fragment.Assoc a
        | Query.Algebra.Table t -> failf c "bad fragment source (table %s)" t
      in
      let client_cond = cond c tbl in
      expect c '(';
      let pairs = until_close c (pair atom atom) in
      let table = atom c in
      { Mapping.Fragment.client_source; client_cond; pairs; table; store_cond = cond c tbl })

(* The bindings of a view section, each [(kind name v)], folded into [init]
   by the reader [kinds] gives its kind, which reads [v] and binds it. *)
let views c kinds init =
  let rec go acc =
    if at_close c then acc
    else
      let kind = head c in
      match List.assoc_opt kind kinds with
      | None -> failf c "bad view binding (%s .." kind
      | Some bind ->
          let name = atom c in
          let acc = bind c name acc in
          expect c ')';
          go acc
  in
  go init

(* The whole document, with or without a term table: a document without one
   (the tree form) has every term inline. *)
let document c =
  let section name = if head c <> name then failf c "expected (%s .." name in
  section "state";
  section "client";
  let client = Obs.Span.with_ ~name:"surface.io.client" (fun () -> client c) in
  section "store";
  let store = Obs.Span.with_ ~name:"surface.io.store" (fun () -> store c) in
  let tbl = { terms = Array.make 256 true_; len = 0 } in
  (match head c with
  | "terms" ->
      Obs.Span.with_ ~name:"surface.io.terms" (fun () -> while not (at_close c) do push tbl (term c tbl) done);
      section "fragments"
  | "fragments" -> ()
  | h -> failf c "expected (terms .. or (fragments .., got (%s .." h);
  let fragments =
    Obs.Span.with_ ~name:"surface.io.fragments" (fun () ->
        Mapping.Fragments.of_list (until_close c (fun c -> fragment c tbl)))
  in
  Obs.Span.tag "terms" tbl.len;
  (* Each reader takes the three arguments [views] applies it to, so no
     call builds a partial application. *)
  let entity_view c name acc =
    let v = field c "view" (fun c -> let query = query c tbl in { Query.View.query; ctor = ctor c tbl }) in
    Query.View.set_entity_view name v acc
  in
  let query_view set c name acc = set name (query c tbl) acc in
  let query_views, update_views =
    Obs.Span.with_ ~name:"surface.io.views" @@ fun () ->
    section "query_views";
    let kinds = [ ("for_entity", entity_view); ("for_assoc", query_view Query.View.set_assoc_view) ] in
    let qv = views c kinds Query.View.no_query_views in
    section "update_views";
    (qv, views c [ ("for_table", query_view Query.View.set_table_view) ] Query.View.no_update_views)
  in
  expect c ')';
  skip_ws c;
  if c.pos < String.length c.text then fail c "trailing input after the state";
  { Core.State.env = Query.Env.make ~client ~store; fragments; query_views; update_views }

let load text =
  Obs.Span.with_ ~name:"surface.io.decode" @@ fun () ->
  Obs.Span.tag "bytes" (String.length text);
  let c = { text; pos = 0; atoms = atoms_for text } in
  match document c with
  | st ->
      Obs.Span.tag "atoms" c.atoms.count;
      Ok st
  | exception Malformed (pos, msg) -> Error (Printf.sprintf "at offset %d: %s" pos msg)
