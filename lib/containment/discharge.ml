(* Batch discharge engine for proof obligations.

   One path for every [jobs]: workers pull indices from a shared atomic
   counter and keep a CAS-maintained minimum failing index; once a failure
   at index [i] is known, indices above [i] are skipped (their verdicts
   cannot change the outcome), and the failure finally reported is the
   smallest failing index — the first failing obligation in emission order.
   With one worker the calling domain walks the batch in order and stops
   proving at the first failure. *)

let batches = Obs.Metric.counter "discharge.batches"

(* [jobs] is a cap, not a demand: spawning more domains than the machine has
   cores can only lose wall-clock to scheduling and stop-the-world minor GCs
   (and the determinism guarantee makes the worker count invisible), so the
   effective worker count never exceeds [Domain.recommended_domain_count]. *)
let effective_workers ~jobs ~n =
  max 1 (min (min jobs n) (Domain.recommended_domain_count ()))

module Rhs_tbl = Hashtbl.Make (struct
  type t = Query.Algebra.t

  let equal = Query.Algebra.equal
  let hash = Hashtbl.hash_param 40 100
end)

(* [Check.superset] memoized per schemas ([==]) and superset side
   ([Query.Algebra.equal]): the obligations of a batch repeat their superset
   sides (every AE-TPH overlap check's [π_key(σ_false T)], the FK checks
   against one referenced table), and each distinct one is normalized
   once.  Each worker keeps its own memo, so domains share no table. *)
let memo_superset () =
  let tables = ref [] in
  fun env rhs ->
    let tbl =
      match List.assq_opt env !tables with
      | Some tbl -> tbl
      | None ->
          let tbl = Rhs_tbl.create 64 in
          tables := (env, tbl) :: !tables;
          tbl
    in
    match Rhs_tbl.find_opt tbl rhs with
    | Some n -> n
    | None ->
        let n = Check.superset env rhs in
        Rhs_tbl.add tbl rhs n;
        n

let prove ~workers arr =
  let n = Array.length arr in
  let next = Atomic.make 0 in
  let first_fail = Atomic.make max_int in
  let failures = Array.make n None in
  (* Lower [first_fail] to [i] unless an earlier failure is already known. *)
  let rec note_fail i =
    let cur = Atomic.get first_fail in
    if i < cur && not (Atomic.compare_and_set first_fail cur i) then note_fail i
  in
  (* Workers claim [chunk] consecutive indices per atomic operation.  The
     chunk size only changes which worker proves which index, never the
     outcome: every index below the final minimum failing index is still
     discharged by someone, so the reported failure is unchanged. *)
  let chunk = 8 in
  let worker () =
    let superset = memo_superset () in
    let continue = ref true in
    while !continue do
      let lo = Atomic.fetch_and_add next chunk in
      if lo >= n then continue := false
      else
        for i = lo to min (lo + chunk - 1) (n - 1) do
          if i < Atomic.get first_fail then
            match Obligation.discharge ~superset arr.(i) with
            | Ok () -> ()
            | Error e ->
                failures.(i) <- Some e;
                note_fail i
        done
    done
  in
  let domains = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  let i = Atomic.get first_fail in
  if i < n then
    match failures.(i) with
    | Some e -> Error e
    | None -> assert false (* note_fail only lowers to indices with a recorded failure *)
  else Ok ()

let run ?(jobs = 1) obls =
  let jobs = max 1 jobs in
  let n = List.length obls in
  let workers = effective_workers ~jobs ~n in
  Obs.Span.with_ ~name:"discharge.batch"
    ~attrs:
      [
        ("jobs", string_of_int jobs);
        ("workers", string_of_int workers);
        ("obligations", string_of_int n);
      ]
  @@ fun () ->
  Obs.Metric.incr batches;
  prove ~workers (Array.of_list obls)
