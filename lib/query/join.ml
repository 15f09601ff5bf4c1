type kind = Inner | Left | Full [@@deriving eq]

type t = { kind : kind; on : string list }

let make kind ~on = { kind; on }
