type t = {
  obligation : string option;
  smo : string option;
  message : string;
}

let msg message = { obligation = None; smo = None; message }
let msgf fmt = Format.kasprintf (fun s -> Error (msg s)) fmt
let of_obligation ~name message = { obligation = Some name; smo = None; message }

let with_smo smo t = { t with smo = Some smo }


(* [show] is the legacy rendering: exactly the human message, so every
   pre-existing consumer that printed the stringly error keeps producing the
   same bytes.  The structured fields travel alongside for programmatic
   consumers. *)
let show t = t.message

let lift r = Result.map_error msg r
