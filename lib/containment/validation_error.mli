(** Structured validation failures.

    The incremental compiler used to abort with bare strings built by
    [Printf.sprintf]; this type carries the same human message plus the two
    pieces of provenance that matter for tooling: which proof {e obligation}
    could not be discharged ({!Obligation}) and which SMO was being applied
    when it failed (tagged by [Core.Engine.apply]).

    {!show} deliberately renders the message alone — byte-for-byte what the
    stringly API produced — so session transcripts and CLI output are stable
    across the migration; the provenance is in the fields. *)

type t = {
  obligation : string option;  (** name of the failing proof obligation *)
  smo : string option;         (** SMO kind ([Core.Smo.name]) being applied *)
  message : string;            (** the human-readable failure *)
}

val msgf : ('a, Format.formatter, unit, ('b, t) result) format4 -> 'a
(** [msgf fmt ...] is [Error (msg (sprintf fmt ...))] — the drop-in
    replacement for the algorithms' local [fail]. *)

val of_obligation : name:string -> string -> t
(** A failure attributed to a named proof obligation. *)

val with_smo : string -> t -> t
(** Tag the error with the SMO kind; applied once at the engine boundary. *)

val show : t -> string
(** The bare message — identical to the pre-structured error strings. *)

val lift : ('a, string) result -> ('a, t) result
(** Adapt a string-error result from the lower layers. *)
