type kind = Inner | Left | Full

type t = { kind : kind; on : string list }

let make kind ~on = { kind; on }
