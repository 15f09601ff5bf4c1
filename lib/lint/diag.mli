(** Lint diagnostics: stable codes, severities, and source locations.

    Every analysis pass of the static mapping analyzer ({!Passes}, {!Wf})
    reports its findings as values of this type.  Codes are stable
    ([L001]..[L0xx] for mapping passes, [L1xx] for the algebra
    well-formedness checker) so tooling can filter or suppress by code.

    The soundness contract: an [Error]-severity diagnostic means the mapping
    is definitely broken — any model that passes [Fullc.Validate] produces
    zero errors.  [Warning] flags constructs that are suspicious but can
    occur in valid mappings (dead branches, unprovable disjointness,
    missing referential support); [Info] is inventory-grade observation. *)

type severity = Error | Warning | Info

type location =
  | Model                    (** the model as a whole *)
  | Entity_set of string
  | Entity_type of string
  | Assoc of string
  | Table of string
  | Fragment of string       (** [Mapping.Fragment.describe] rendering *)
  | Query_view of string     (** entity type or association set *)
  | Update_view of string    (** table name *)

type t = {
  code : string;             (** stable, [L]-prefixed *)
  severity : severity;
  loc : location;
  message : string;
}

val makef :
  code:string -> severity:severity -> loc:location ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val sort : t list -> t list
(** Errors first, then warnings, then infos; ties broken by code, location,
    message — a stable presentation order, duplicates dropped. *)

(** {1 Location-free findings}

    The view analyses run once per physically distinct subterm
    ({!Query.Algebra.Memo}), and a subterm may sit in many views.  So what
    they store per subterm is a finding without a location; each view that
    contains the subterm turns it into a diagnostic at its own location. *)

type finding

val finding :
  code:string -> severity:severity -> ('a, Format.formatter, unit, finding) format4 -> 'a

val at : location -> finding -> t

val union_findings : finding list -> finding list -> finding list
(** Sorted and duplicate-free when both arguments are; returns one argument
    itself when the other is empty, so a clean subterm allocates nothing. *)

val errors : t list -> t list

val count : t list -> int * int * int
(** [(errors, warnings, infos)]. *)

val pp : Format.formatter -> t -> unit
(** One line: [error L004 (fragment ...): message]. *)

val to_text : t list -> string
(** One diagnostic per line followed by a summary line. *)

val to_json : t list -> string
(** A JSON object [{"diagnostics": [...], "errors": n, "warnings": n,
    "infos": n}] — the machine-readable CI artifact. *)
