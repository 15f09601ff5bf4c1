(** Recursive-descent parser for the surface syntax.

    A model file has up to three sections:

    {v
    client {
      set Persons of Person;
      type Person { key Id : int; Name : string; }
      type Employee : Person { Department : string; }
      assoc Supports between Customer and Employee multiplicity * to 0..1;
    }
    store {
      table HR { Id : int not null; Name : string; key (Id); }
      table Emp { Id : int not null; Dept : string; key (Id);
                  fk (Id) references HR (Id); }
    }
    mapping {
      fragment Persons where is of Employee
        maps (Id -> Id, Department -> Dept) to Emp;
      fragment Supports maps (Customer.Id -> Cid, Employee.Id -> Eid)
        to Client where Eid is not null;
    }
    v}

    An SMO script is a sequence of statements such as:

    {v
    add entity Employee : Person { Department : string; }
      alpha (Id, Department) reference Person
      to table Emp { Id : int not null; Dept : string; key (Id); }
      map (Id -> Id, Department -> Dept);

    add assoc Supports between Customer and Employee multiplicity * to 0..1
      fk in Client map (Customer.Id -> Cid, Employee.Id -> Eid);

    add property Employee.Level : int in Emp column Level;
    drop entity Customer;
    refactor Heads;
    v}

    Each entry point returns the compiler's own values, built while the
    text is parsed: a declaration becomes an [Edm], [Relational] or
    [Core.Smo] value where it is read, and a check that one declaration
    fails (a root with no key, a derived type that declares one, a table
    keyed on a column it does not declare, an unknown source) is an error
    at its position.  Every error that has a position starts with
    [line L, column C:] and says what was expected.

    An [Int] literal compared with or stored in an attribute or column known
    to be [Decimal] becomes the equal [Decimal] ({!Datum.Value.of_domain}):
    in fragment conditions, query conditions, data and DML.  The value
    order puts every [Int] below every [Decimal], so [W > 1] on a Decimal
    [W] would otherwise hold of [W = 0.5]. *)

val model : string -> (Query.Env.t * Mapping.Fragments.t, string) result
(** The client schema ({!Edm.Schema.of_declarations}), the store schema and
    the fragment set, checked with the semantic [well_formed] predicates. *)

val client : string -> (Edm.Schema.t, string) result
(** Parse a whole model file but build only its client section (the store
    and mapping may be an older model's), checked with
    {!Edm.Schema.well_formed}. *)

val script : string -> (Core.Smo.t list, string) result
val condition : string -> (Query.Cond.t, string) result
(** Parse a standalone condition — handy for tests and the CLI. *)

val query : Query.Env.t -> string -> (Query.Algebra.t, string) result
(** [select Id, Name from Persons where is of Employee] — project–select
    over one entity set or association of [env] ([select *] for all
    columns), type-checked with {!Query.Algebra.infer}. *)

val data : Query.Env.t -> string -> (Edm.Instance.t, string) result
(** A client-state literal, checked with {!Edm.Instance.conforms}:
    {v
    data {
      Persons: Employee (Id = 2, Name = "Bob", Department = "Sales");
      Supports: (Customer.Id = 3, Employee.Id = 2);
    }
    v} *)

val dml : Query.Env.t -> string -> (Dml.Delta.t, string) result
(** A client-side update script:
    {v
    insert Persons Employee (Id = 9, Name = "Hal", Department = "IT");
    update Persons (Id = 1) set (Name = "Anya");
    delete Persons (Id = 2);
    link Supports (Customer.Id = 5, Employee.Id = 4);
    unlink Supports (Customer.Id = 5, Employee.Id = 4);
    v}
    Attribute domains are read from [env]'s client schema; an unknown set,
    type or association is left to the translator to report. *)
