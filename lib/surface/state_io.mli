(** Persistence for compiled states.

    The paper's standalone compiler reads the pre-evolved model and its
    Entity SQL query/update views from the file EF generated, and writes the
    evolved views back (Section 4.1, Fig. 7).  [State_io] plays that role
    here: a compiled {!Core.State.t} — schemas, fragments, and both view
    sets — serializes to an s-expression document and loads back losslessly
    (a tested roundtrip), so an incremental session can resume without
    re-running the full compiler.

    {2 The document}

    {v
    (state
     (client (type ..) .. (eset ..) .. (rel ..) ..)
     (store (table ..) ..)
     (terms e0 e1 e2 ..)
     (fragments (frag (set S) #i ((a c) ..) T #j) ..)
     (query_views (for_entity E (view #q #c)) .. (for_assoc A #q) ..)
     (update_views (for_table T #q) ..))
    v}

    {b Term table.}  Every {!Query.Cond.t}, {!Query.Algebra.t} and
    {!Query.Ctor.t} node of the fragments and of both view sets is a term.
    [terms] lists each structurally distinct node once, for example
    [(and #3 #7)], [(select #7 #12)] or [(if #2 #9 #10)].  An entry's head
    names its sort (condition, query or constructor).

    {b Back-references.}  [#k] names entry [k] of the table, counted from 0.
    An entry may only reference entries before it, so the table is in
    dependency order, and a reference must name a term of the sort its
    position expects.  Views and fragment conditions refer to the table the
    same way.  The decoder accepts a reference wherever a term may appear and
    an inline term anywhere else.  So a document without a [terms] field,
    where every term is inline (the tree form written before the table
    existed), loads through the same code.

    {b Lexical rules.}  An atom is bare, or between double quotes when it
    is empty or holds a space, tab, LF, CR, parenthesis, double quote or
    semicolon; inside the quotes a backslash escapes a double quote, a
    backslash or an [n] (for LF).  [save] quotes an atom exactly then.  The
    reader also skips blanks, and semicolon comments to the end of a line,
    between any two tokens, and accepts a quoted atom wherever a bare one
    may stand.

    {b Canonical form.}  [save] interns nodes by structure, children first,
    in document order: fragments, then query views, then update views, each
    in binding order.  The table and the text therefore depend only on the
    structure of the state, never on its physical sharing, and
    [save (load text) = text] for every [text] that [save] wrote.

    {b One pass each way.}  [load] walks a cursor over the text and decodes
    each entry, fragment and view as it reads it, with no s-expression tree
    in between.  It decodes each entry once, in table order, so structurally
    equal subterms of the loaded state are physically shared: on the
    customer model the loaded state is about as large in memory as the
    compiled one, and the file about 174 KB.  [save] prints every section
    and entry straight into its writer: the term table while it interns the
    fragments' conditions and the views, then the sections that refer to
    it.  It reaches the terms through physical-identity memo tables
    ({!Query.Algebra.Memo} and its condition and constructor twins), so it
    walks the views as the DAG they are: a shared subterm is visited once.
    A node seen before has no new subterm, so this changes no byte of the
    output.

    {b Shared atoms.}  [load] interns every atom, bare or quoted, in a table
    keyed by its bytes: a lookup hashes and compares the atom where it lies
    in the text, and a string is allocated only the first time its bytes
    appear (a quoted atom with escapes is unescaped first).  So equal names
    of the loaded state, a column of many fragments and views or a type of
    the schema and the constructors, are one string.  The table is sized
    from the text's length and grows if it fills; each call makes its own,
    so no table outlives a call.

    {b Chunked writer.}  [save] writes into fixed 64 KB chunks and copies
    them once into a string of the document's exact length, where a growing
    buffer would copy its storage at each doubling and once more at the
    end.

    On the customer model [load] allocates about 1.27 MB and [save] about
    0.84 MB, for a 173,682-byte document with 1,413 distinct atoms
    ([BENCH_edit.json]).

    Each direction records one [Obs] span: [surface.io.decode] in [load],
    tagged with the text's [bytes], once the table is read its [terms]
    count, and on success its [atoms], the distinct atoms it allocated; and
    [surface.io.encode] in [save], tagged with the document's [bytes], the
    writer's [chunks], its [terms] count and [visits], the nodes the encoder
    looked up.  On a loaded state, where each term is one physical node, [visits]
    equals [terms].  The decode span's children time the load's phases:
    [surface.io.client], [.store], [.terms], [.fragments] and [.views].

    {b What [load] checks.}  Both schemas, with the builders a model file's
    parse uses ({!Edm.Schema.of_declarations}, {!Relational.Schema.of_tables}),
    so a malformed schema gets the model file's message.  It leaves the
    fragments to [imcc lint] (L012) and [Fullc.Validate]: checking the
    customer model's 270 fragments at load would cost about 0.23 MB, some
    5% of a load-evolve-lint-save edit. *)

val save : Core.State.t -> string

val load : string -> (Core.State.t, string) result
(** [Error] on any malformed document — unparsable text, a bad field, a
    forward, dangling or out-of-range reference, a reference to a term of
    the wrong sort, or a schema its builder refuses — naming the offset the
    reader stopped at.  Never raises. *)
