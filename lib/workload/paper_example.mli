(** The paper's running example (Figs. 1 and 5 and Examples 1–7):

    client types [Person ⊇ Employee, Customer] in entity set [Persons],
    association [Supports⟨Customer, Employee⟩] with multiplicity [* – 0..1],
    store tables [HR(Id, Name)], [Emp(Id, Dept)] and
    [Client(Cid, Eid, Name, Score, Addr)], mapped TPT (Employee) and TPC
    (Customer), with [Supports] mapped to the key/foreign-key pair
    [Client.Cid → Client.Eid].

    The example is staged exactly as the paper evolves it: stage 1 is
    [Person]/[HR] alone (Example 1); stage 2 adds [Employee] (TPT, Example
    2); stage 3 adds [Customer] (TPC, Example 4); stage 4 adds [Supports]
    (Example 7).  Each stage carries the client schema, store schema and the
    fragment set Σ1 … Σ4 from Example 5. *)

type stage = {
  env : Query.Env.t;
  fragments : Mapping.Fragments.t;
}

val stage1 : stage
val stage2 : stage
val stage3 : stage
val stage4 : stage

(** Individual fragments, as named in Example 5. *)

val phi1 : Mapping.Fragment.t
(** π(σ IS OF Person) = π(HR) — stages 1–2 *)

val phi1' : Mapping.Fragment.t
(** the Σ3 rewrite: IS OF (ONLY Person) ∨ IS OF Employee *)

val phi2 : Mapping.Fragment.t
(** Employee → Emp *)

val phi3 : Mapping.Fragment.t
(** Customer → Client *)

val phi4 : Mapping.Fragment.t
(** Supports → Client (Cid, Eid) *)

val sample_client : Edm.Instance.t
(** A small conforming client state for stage 4: two plain persons, two
    employees, two customers, one supported by an employee. *)

val sample_store : Relational.Instance.t
(** The store state corresponding to [sample_client] under the stage-4
    mapping. *)
