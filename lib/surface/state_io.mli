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
     (query_views (for_entity E (view #q #c)) .. (for_assoc A (view #q #c)) ..)
     (update_views (for_table T (view #q #c)) ..))
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

    {b Canonical form.}  [save] interns nodes by structure, children first,
    in document order: fragments, then query views, then update views, each
    in binding order.  The table and the text therefore depend only on the
    structure of the state, never on its physical sharing, and
    [save (load text) = text] for every [text] that [save] wrote.

    [load] decodes each entry once, in table order, so structurally equal
    subterms of the loaded state are physically shared: on the customer
    model the loaded state is about as large in memory as the compiled one,
    and the file about 180 KB.

    [save] reaches the terms through physical-identity memo tables
    ({!Query.Algebra.Memo} and its condition and constructor twins), so it
    walks the views as the DAG they are: a shared subterm is visited once.
    A node seen before has no new subterm, so this changes no byte of the
    output.

    Both directions record [Obs] spans: [surface.io.parse] and
    [surface.io.decode] in [load], [surface.io.encode] in [save], each
    tagged with the document's [bytes] and its [terms] count.  The encode
    span also carries [visits], the nodes the encoder looked up; on a loaded
    state, where each term is one physical node, it equals [terms]. *)

val save : Core.State.t -> string

val load : string -> (Core.State.t, string) result
(** [Error] on any malformed document — unparsable text, a bad field, a
    forward, dangling or out-of-range reference, or a reference to a term of
    the wrong sort.  Never raises. *)
