(* Measurement plumbing shared by the three workloads: clocks, allocation
   counts, per-call sample recording, percentiles, peak RSS, the host-speed
   probe and the trace roll-up. *)

let now = Unix.gettimeofday

(* Words the calling domain has allocated so far.  Promoted words are counted
   once in [minor] and again in [major], so they are subtracted: the result
   depends only on the calls made, not on when the collector ran. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let mb_of_words w = w *. 8. /. 1e6

(* -- samples ---------------------------------------------------------------- *)

(* Per-call latency samples (ms) and allocation (words), keyed by call name.
   [tracing] wraps every recorded call in an [Obs] span of the same name. *)
type recorder = {
  samples : (string, float list ref) Hashtbl.t;
  words : (string, float ref) Hashtbl.t;
  tracing : bool;
}

let recorder ~tracing = { samples = Hashtbl.create 32; words = Hashtbl.create 32; tracing }

let cell tbl name init =
  match Hashtbl.find_opt tbl name with
  | Some c -> c
  | None ->
      let c = ref init in
      Hashtbl.replace tbl name c;
      c

let add_sample r name ms =
  let c = cell r.samples name [] in
  c := ms :: !c

let call r name f =
  let a0 = alloc_words () in
  let t0 = now () in
  let x = if r.tracing then Obs.Span.with_ ~name f else f () in
  let t1 = now () in
  let a1 = alloc_words () in
  add_sample r name ((t1 -. t0) *. 1e3);
  let w = cell r.words name 0. in
  w := !w +. (a1 -. a0);
  x

let samples r name = match Hashtbl.find_opt r.samples name with Some c -> !c | None -> []
let words r name = match Hashtbl.find_opt r.words name with Some c -> !c | None -> 0.

(* -- statistics ------------------------------------------------------------- *)

(* Fisher-Yates, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

(* -- process ---------------------------------------------------------------- *)

(* Peak resident set size of this process, from /proc (Linux). *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
             | _ -> None)
      |> Option.value ~default:0.

(* The switches the libraries read from the environment.  The benchmark runs
   with all of them unset (their user default) and records what it saw. *)
let env_switches = [ "IMC_JOBS"; "IMC_IVM"; "IMC_LINT_WF"; "CI"; "OCAMLRUNPARAM" ]

(* -- host-speed probe ------------------------------------------------------- *)

(* A fixed CPU-and-allocation kernel, timed before and after a workload.  It
   shows how fast the host ran during the run; it is reported beside the
   metrics and never used to scale them. *)
let probe_kernel () =
  let n = 15_000 in
  let a = Array.init n (fun i -> (i * 7919) land 0xFFFFF) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  Array.iter (fun x -> Hashtbl.replace h (x land 8191) (string_of_int x)) a;
  Hashtbl.length h

let probe_ms () =
  let one () =
    let t0 = now () in
    ignore (Sys.opaque_identity (probe_kernel ()));
    (now () -. t0) *. 1e3
  in
  median (List.init 5 (fun _ -> one ()))

(* -- counters --------------------------------------------------------------- *)

let counter_delta (d : Obs.Metric.snapshot) name =
  Option.value ~default:0 (List.assoc_opt name d.Obs.Metric.counters)

(* -- trace roll-up ---------------------------------------------------------- *)

(* Layer of a span: the benchmark's own spans are named "<layer>.<call>";
   the library spans [Obs] records inside them are mapped by prefix. *)
let layer_of name =
  if String.starts_with ~prefix:"smo:" name then "core"
  else
    match String.index_opt name '.' with
    | None -> "bench"
    | Some i -> (
        match String.sub name 0 i with
        | "surface" -> "surface"
        | "lint" -> "lint"
        | "discharge" | "containment" | "validate" -> "containment"
        | "exec" -> "exec"
        | "dml" | "ivm" -> "dml"
        | _ -> "core")

let layers = [ "surface"; "core"; "lint"; "containment"; "exec"; "dml" ]

(* Totals and self times per layer over the completed [Obs] roots.  A layer's
   total counts only its outermost spans, so nested spans of the same layer
   are not counted twice; its self time is the sum of the self times of all
   its spans. *)
type rollup = { total : (string, float ref) Hashtbl.t; self : (string, float ref) Hashtbl.t;
                mutable spans : int }

let rollup () = { total = Hashtbl.create 8; self = Hashtbl.create 8; spans = 0 }

let harvest ru =
  let rec walk open_layers sp =
    let l = layer_of (Obs.Span.name sp) in
    ru.spans <- ru.spans + 1;
    let s = cell ru.self l 0. in
    s := !s +. Obs.Span.self_s sp;
    if not (List.mem l open_layers) then begin
      let t = cell ru.total l 0. in
      t := !t +. Obs.Span.duration_s sp
    end;
    List.iter (walk (l :: open_layers)) (Obs.Span.children sp)
  in
  List.iter (walk []) (Obs.Span.roots ());
  Obs.Span.reset ()

let rollup_ms tbl l = match Hashtbl.find_opt tbl l with Some c -> !c *. 1e3 | None -> 0.

(* -- output ----------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* -- one pass over a workload's ops ----------------------------------------- *)

(* What a pass accumulates.  [op_ms] and [write_ms] are latency samples;
   [op_words] is allocation and [counts] the counter deltas inside the timed
   regions; [sequence] is the op labels in order (their digest identifies the
   seeded op sequence).  [pause i] runs before op [i], outside every
   measurement of the pass. *)
type pass = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable op_ms : float list;
  mutable write_ms : float list;
  mutable op_words : float;
  mutable state_bytes : float list;
  mutable sequence : string list;
  mutable counts : Obs.Metric.snapshot;
  rec_ : recorder;
  ru : rollup;
  pause : int -> unit;
}

let new_pass ~tracing ~pause =
  { attempted = 0; failed = 0; failures = []; op_ms = []; write_ms = []; op_words = 0.;
    state_bytes = []; sequence = []; counts = { Obs.Metric.counters = []; gauges = [] };
    rec_ = recorder ~tracing; ru = rollup (); pause }

(* [acc] plus the deltas [d].  A diff lists every counter registered when it
   was taken, and counters are never unregistered, so [d] names every counter
   [acc] does. *)
let add_counts (acc : Obs.Metric.snapshot) (d : Obs.Metric.snapshot) =
  { d with Obs.Metric.counters =
      List.map (fun (k, v) -> (k, v + counter_delta acc k)) d.Obs.Metric.counters }

(* Time one op: [f] runs the op's calls and returns what the checks need.
   Latency, allocation and counter deltas cover [f] only.  [collect] starts
   the op on a collected heap.  With tracing on, span collection is switched
   on for the op alone, the op is the root span, and its spans are rolled up
   and dropped right after it. *)
let timed_op ?(collect = false) p label f =
  p.pause p.attempted;
  if collect then Gc.full_major ();
  p.attempted <- p.attempted + 1;
  p.sequence <- label :: p.sequence;
  let tracing = p.rec_.tracing in
  if tracing then Obs.enable ();
  let c0 = Obs.Metric.snapshot () in
  let a0 = alloc_words () in
  let t0 = now () in
  let x = if tracing then Obs.Span.with_ ~name:"op" f else f () in
  let t1 = now () in
  let a1 = alloc_words () in
  let c1 = Obs.Metric.snapshot () in
  if tracing then begin
    Obs.disable ();
    harvest p.ru
  end;
  p.op_ms <- ((t1 -. t0) *. 1e3) :: p.op_ms;
  p.op_words <- p.op_words +. (a1 -. a0);
  p.counts <- add_counts p.counts (Obs.Metric.diff c0 c1);
  x

(* Record the outcome of an op's checks (run outside the timed region). *)
let checked p errors =
  match errors with
  | [] -> ()
  | e :: _ ->
      p.failed <- p.failed + 1;
      if List.length p.failures < 5 then p.failures <- e :: p.failures

let digest p = Digest.to_hex (Digest.string (String.concat "\n" (List.rev p.sequence)))
