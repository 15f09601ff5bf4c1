type t = {
  name : string;
  mutable attrs : (string * string) list; (* newest first *)
  start : float;
  mutable finish : float;
  alloc_start : float;
  mutable alloc_words : float;
  mutable children_rev : t list;
}

let clock = Unix.gettimeofday

(* Words allocated so far by the calling domain: its minor words, and the
   words allocated directly in the major heap (major words that were not
   promoted from the minor heap). *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. (major -. promoted)

(* Completed top-level spans, newest first.  Shared across domains, hence the
   mutex; open-span stacks are domain-local (spans never migrate), so pushes
   and pops need no locking. *)
let completed : t list ref = ref []
let completed_mutex = Mutex.create ()

let stack_key : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let enter name attrs =
  let span =
    { name; attrs; start = clock (); finish = nan; alloc_start = allocated (); alloc_words = nan;
      children_rev = [] }
  in
  let stack = Domain.DLS.get stack_key in
  stack := span :: !stack;
  span

let exit_ span =
  span.finish <- clock ();
  span.alloc_words <- allocated () -. span.alloc_start;
  let stack = Domain.DLS.get stack_key in
  (match !stack with
  | top :: rest when top == span -> stack := rest
  | _ ->
      (* An escaped exception can leave descendants open; drop them. *)
      let rec unwind = function
        | top :: rest when top != span -> unwind rest
        | _ :: rest -> rest
        | [] -> []
      in
      stack := unwind !stack);
  match !stack with
  | parent :: _ -> parent.children_rev <- span :: parent.children_rev
  | [] ->
      Mutex.lock completed_mutex;
      completed := span :: !completed;
      Mutex.unlock completed_mutex

let with_ ?(attrs = []) ~name f =
  if not (Switch.enabled ()) then f ()
  else
    let span = enter name attrs in
    Fun.protect ~finally:(fun () -> exit_ span) f

let tag key n =
  if Switch.enabled () then
    match !(Domain.DLS.get stack_key) with
    | [] -> ()
    | span :: _ -> span.attrs <- (key, string_of_int n) :: span.attrs

let reset () =
  Mutex.lock completed_mutex;
  completed := [];
  Mutex.unlock completed_mutex;
  Domain.DLS.get stack_key := []

let roots () =
  Mutex.lock completed_mutex;
  let r = List.rev !completed in
  Mutex.unlock completed_mutex;
  r

let name s = s.name
let attrs s = List.rev s.attrs
let children s = List.rev s.children_rev
let start_s s = s.start
let duration_s s = s.finish -. s.start
let alloc_mb s = s.alloc_words *. float_of_int (Sys.word_size / 8) /. 1e6

let self_s s =
  duration_s s -. List.fold_left (fun acc c -> acc +. duration_s c) 0. s.children_rev

let rec fold f acc s = List.fold_left (fold f) (f acc s) (children s)
let fold_all f acc = List.fold_left (fold f) acc (roots ())
