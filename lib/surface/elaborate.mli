(** Elaboration: surface syntax to the semantic objects of the compiler.

    Name resolution and well-formedness beyond the grammar (unknown parents,
    sets without roots, fragments over unknown sources) are reported with
    the offending names; everything that passes elaboration also passes the
    semantic layers' own constructors, whose errors are propagated.

    An [Int] literal compared with or stored in an attribute or column known
    to be [Decimal] becomes the equal [Decimal] ({!Datum.Value.of_domain}):
    in fragment conditions, query conditions, data and DML.  The value
    order puts every [Int] below every [Decimal], so [W > 1] on a Decimal
    [W] would otherwise hold of [W = 0.5]. *)

val model : Ast.model -> (Query.Env.t * Mapping.Fragments.t, string) result
(** Builds the client schema (types in dependency order), the store schema
    and the fragment set.  The result is checked with the semantic
    [well_formed] predicates before being returned. *)

val script : Ast.script -> (Core.Smo.t list, string) result

val query : Query.Env.t -> Ast.query -> (Query.Algebra.t, string) result
(** Resolve the source name against the environment and type-check the
    result with [Query.Algebra.infer]. *)

val data : Query.Env.t -> Ast.data -> (Edm.Instance.t, string) result
(** Build a client state and check it with [Edm.Instance.conforms]. *)

val dml : Query.Env.t -> Ast.dml -> (Dml.Delta.t, string) result
(** Attribute domains are read from [env]'s client schema; an unknown set,
    type or association is left to the translator to report. *)
