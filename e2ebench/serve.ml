(* The [serve] workload: the customer mapping over a populated instance.  One
   closed-loop client issues a seeded mix of reads and writes.  Reads plan a
   client query through the session's plan memo and run it on an [Exec.Idb]
   of the current store; writes are small client transactions translated by
   the IVM handle, after which the [Idb] is rebuilt, as any caller must do.
   No SMO, persistence or lint. *)

open Common
module A = Query.Algebra
module I = Edm.Instance
module S = Edm.Schema

(* The instance is the same for every run seed, so runs with different seeds
   differ only in their request stream: about 9 x [entities_per_set]
   entities over the 18 entity sets, and up to 3 links per association. *)
let instance_seed = 2013
let entities_per_set = 300

type input = {
  st : Core.State.t;
  client0 : I.t;
  ivm0 : Dml.Translate.incremental;
}

let setup st =
  let client0 =
    Roundtrip.Generate.instance ~seed:instance_seed ~entities_per_set st.Core.State.env.Query.Env.client
  in
  let ivm0 =
    Suite.ok "ivm_init"
      (Dml.Translate.ivm_init st.Core.State.env st.Core.State.update_views client0)
  in
  { st; client0; ivm0 }

(* -- the request stream ----------------------------------------------------- *)

type request =
  | Read of string * A.t  (* label, client query *)
  | Write of string * Dml.Delta.t * I.t  (* label, delta, client state after it *)

let pick rng a = a.(Random.State.int rng (Array.length a))

(* Zipf(1) over ranks: rank r is drawn with weight 1 / (r + 1). *)
let zipf rng n =
  let h = ref 0. in
  for r = 0 to n - 1 do h := !h +. (1. /. float_of_int (r + 1)) done;
  let u = Random.State.float rng !h in
  let rec go r acc =
    let acc = acc +. (1. /. float_of_int (r + 1)) in
    if acc >= u || r = n - 1 then r else go (r + 1) acc
  in
  go 0 0.

let key_col schema set =
  match S.set_root schema set with
  | Some root -> (match S.key_of schema root with [ k ] -> k | _ -> invalid_arg "composite key")
  | None -> invalid_arg ("unknown set " ^ set)

let id_of schema set (e : I.entity) =
  match Datum.Row.get (key_col schema set) e.I.attrs with
  | Datum.Value.Int n -> n
  | _ -> invalid_arg "non-integer key"

(* Draws without replacement from a seeded shuffle of [cards], reshuffled when
   used up.  Dealing request kinds and read targets from decks instead of
   drawing them independently gives every run the same mix, whatever its
   seed, to within one deck. *)
type deck = { cards : string array; mutable next : int }

let deal rng d =
  if d.next = 0 then shuffle rng d.cards;
  let c = d.cards.(d.next) in
  d.next <- (d.next + 1) mod Array.length d.cards;
  c

(* Per 50 requests: 34 key lookups, 4 entity-set scans, 2 association scans
   (80% reads) and 10 write transactions. *)
let kind_cards =
  Array.concat
    [ Array.make 34 "get"; Array.make 4 "scan"; Array.make 2 "assoc"; Array.make 10 "write" ]

type stream = {
  rng : Random.State.t;
  schema : S.t;
  sets : string array;
  assocs : Edm.Association.t array;
  hot : (string, int array) Hashtbl.t;  (* per set: keys in popularity order *)
  mutable next_id : int;
  kinds : deck;  (* request kinds *)
  read_sets : deck;  (* entity sets of key lookups and scans *)
}

let stream ~rng st client0 =
  let schema = st.Core.State.env.Query.Env.client in
  let sets = Array.of_list (List.map fst (S.entity_sets schema)) in
  let hot = Hashtbl.create 32 in
  Array.iter
    (fun set ->
      let ids = Array.of_list (List.map (id_of schema set) (I.entities client0 ~set)) in
      shuffle rng ids;
      Hashtbl.replace hot set ids)
    sets;
  { rng; schema; sets; assocs = Array.of_list (S.associations schema); hot; next_id = 1_000_000;
    kinds = { cards = Array.copy kind_cards; next = 0 };
    read_sets = { cards = Array.copy sets; next = 0 } }

let key_row schema set id = Datum.Row.of_list [ (key_col schema set, Datum.Value.Int id) ]

let link_ids row =
  List.filter_map
    (function _, Datum.Value.Int n -> Some n | _ -> None)
    (Datum.Row.to_list row)

(* Entities of [etype]'s set that are of [etype] or below it. *)
let members sm c etype =
  match S.set_of_type sm.schema etype with
  | None -> ("", [||])
  | Some set ->
      ( set,
        Array.of_list
          (List.filter
             (fun (e : I.entity) -> S.is_subtype sm.schema ~sub:e.I.etype ~sup:etype)
             (I.entities c ~set)) )

let insert_entity sm =
  let set = pick sm.rng sm.sets in
  let root = Option.get (S.set_root sm.schema set) in
  let etype = pick sm.rng (Array.of_list (S.subtypes sm.schema root)) in
  let id = sm.next_id in
  sm.next_id <- id + 1;
  Hashtbl.replace sm.hot set (Array.append (Hashtbl.find sm.hot set) [| id |]);
  let key = S.key_of sm.schema etype in
  let attrs =
    List.map
      (fun (a, dom) ->
        if List.mem a key then (a, Datum.Value.Int id)
        else (a, Roundtrip.Generate.value_for sm.rng dom))
      (S.attributes sm.schema etype)
  in
  ("insert", Dml.Delta.Insert_entity { set; entity = I.entity ~etype attrs })

(* What the operations generated so far in a transaction hold: entities
   they update, delete or link (no later operation of the transaction may
   touch those), and links they insert or delete. *)
type tx = { mutable touched : int list; mutable added : (string * Datum.Row.t) list;
            mutable removed : (string * Datum.Row.t) list }

let untouched sm tx set es =
  List.filter (fun e -> not (List.mem (id_of sm.schema set e) tx.touched)) es

(* One client operation, valid on [c] after the transaction's earlier
   operations, by construction. *)
let rec write_op sm tx c =
  let links name = I.links c ~assoc:name @ List.filter_map (fun (a, l) -> if a = name then Some l else None) tx.added in
  match Random.State.int sm.rng 100 with
  | k when k < 30 -> insert_entity sm
  | k when k < 60 -> (
      let set = pick sm.rng sm.sets in
      match untouched sm tx set (I.entities c ~set) with
      | [] -> insert_entity sm
      | es ->
          let e = pick sm.rng (Array.of_list es) in
          let id = id_of sm.schema set e in
          tx.touched <- id :: tx.touched;
          let key = S.key_of sm.schema e.I.etype in
          let attrs =
            Array.of_list
              (List.filter (fun (a, _) -> not (List.mem a key)) (S.attributes sm.schema e.I.etype))
          in
          let a, dom = pick sm.rng attrs in
          ( "update",
            Dml.Delta.Update_entity
              { set; key = key_row sm.schema set id;
                changes = [ (a, Roundtrip.Generate.value_for sm.rng dom) ] } ))
  | k when k < 75 -> (
      let set = pick sm.rng sm.sets in
      let linked =
        Array.to_list sm.assocs
        |> List.concat_map (fun (a : Edm.Association.t) -> links a.Edm.Association.name)
        |> List.concat_map link_ids
      in
      match
        List.filter
          (fun e -> not (List.mem (id_of sm.schema set e) linked))
          (untouched sm tx set (I.entities c ~set))
      with
      | [] -> insert_entity sm
      | es ->
          let id = id_of sm.schema set (pick sm.rng (Array.of_list es)) in
          tx.touched <- id :: tx.touched;
          ("delete", Dml.Delta.Delete_entity { set; key = key_row sm.schema set id }))
  | k when k < 90 -> (
      let a = pick sm.rng sm.assocs in
      let name = a.Edm.Association.name in
      let links = links name in
      let q1 = Edm.Association.qualify ~etype:a.Edm.Association.end1 "Id"
      and q2 = Edm.Association.qualify ~etype:a.Edm.Association.end2 "Id" in
      let ends bounded col etype =
        let set, es = members sm c etype in
        let used = List.map (fun l -> Datum.Row.get col l) links in
        ( set,
          Array.of_list
            (List.filter
               (fun e -> not (bounded && List.mem (Datum.Value.Int (id_of sm.schema set e)) used))
               (untouched sm tx set (Array.to_list es))) )
      in
      let set1, ends1 = ends (a.Edm.Association.mult2 <> Edm.Association.Many) q1 a.Edm.Association.end1 in
      let set2, ends2 = ends (a.Edm.Association.mult1 <> Edm.Association.Many) q2 a.Edm.Association.end2 in
      if ends1 = [||] || ends2 = [||] then insert_entity sm
      else
        let id1 = id_of sm.schema set1 (pick sm.rng ends1) in
        let id2 = id_of sm.schema set2 (pick sm.rng ends2) in
        let row = Datum.Row.of_list [ (q1, Datum.Value.Int id1); (q2, Datum.Value.Int id2) ] in
        if List.exists (Datum.Row.equal row) links then insert_entity sm
        else begin
          tx.touched <- id1 :: id2 :: tx.touched;
          tx.added <- (name, row) :: tx.added;
          ("link", Dml.Delta.Insert_link { assoc = name; link = row })
        end)
  | _ -> (
      let removable (a : Edm.Association.t) =
        let name = a.Edm.Association.name in
        List.filter (fun l -> not (List.mem (name, l) tx.removed)) (I.links c ~assoc:name)
      in
      match List.filter (fun a -> removable a <> []) (Array.to_list sm.assocs) with
      | [] -> write_op sm tx c
      | with_links ->
          let a = pick sm.rng (Array.of_list with_links) in
          let name = a.Edm.Association.name in
          let link = pick sm.rng (Array.of_list (removable a)) in
          tx.removed <- (name, link) :: tx.removed;
          ("unlink", Dml.Delta.Delete_link { assoc = name; link }))

(* A transaction of one to three operations, generated against the client
   state before it and checked as a whole with [Dml.Delta.apply], the oracle,
   which also gives the client state after it. *)
let write sm c =
  let tx = { touched = []; added = []; removed = [] } in
  let ops = List.init (1 + Random.State.int sm.rng 3) (fun _ -> write_op sm tx c) in
  let delta = List.map snd ops in
  match Dml.Delta.apply sm.schema c delta with
  | Ok c' -> Ok (String.concat "+" (List.map fst ops), delta, c')
  | Error e -> Error (Format.asprintf "generated %a is invalid: %s" Dml.Delta.pp delta e)

(* 80% reads: key lookups on Zipf-skewed keys, plus some whole entity-set and
   association scans; 20% writes. *)
let request sm c =
  match deal sm.rng sm.kinds with
  | "get" ->
      let set = deal sm.rng sm.read_sets in
      let ids = Hashtbl.find sm.hot set in
      if ids = [||] then Ok (Read ("scan:" ^ set, A.Scan (A.Entity_set set)))
      else
        let id = ids.(zipf sm.rng (Array.length ids)) in
        Ok
          (Read
             ( Printf.sprintf "get:%s:%d" set id,
               A.Select
                 ( Query.Cond.Cmp (key_col sm.schema set, Query.Cond.Eq, Datum.Value.Int id),
                   A.Scan (A.Entity_set set) ) ))
  | "scan" ->
      let set = deal sm.rng sm.read_sets in
      Ok (Read ("scan:" ^ set, A.Scan (A.Entity_set set)))
  | "assoc" ->
      let a = (pick sm.rng sm.assocs).Edm.Association.name in
      Ok (Read ("assoc:" ^ a, A.Scan (A.Assoc_set a)))
  | _ -> Result.map (fun (label, delta, c') -> Write (label, delta, c')) (write sm c)

(* -- the run ---------------------------------------------------------------- *)

let sorted_rows rows = List.sort Datum.Row.compare rows

let run ~rng ~ops p input =
  let check_rng = Random.State.split rng in
  let st = input.st in
  let env = st.Core.State.env in
  let sm = stream ~rng st input.client0 in
  let sess = Core.Session.start st in
  let r = p.rec_ in
  let client = ref input.client0 and ivm = ref input.ivm0 in
  let idb = ref (Exec.Idb.make env (Query.Eval.store_db (Dml.Translate.ivm_store !ivm))) in
  for _ = 1 to ops do
    match request sm !client with
    | Error e ->
        p.attempted <- p.attempted + 1;
        checked p [ e ]
    | Ok (Read (label, q)) -> (
        let result =
          timed_op p label @@ fun () ->
          match call r "core.query_plan" (fun () -> Core.Session.query_plan sess q) with
          | Error e -> Error e
          | Ok plan -> Ok (call r "exec.run" (fun () -> Exec.Run.rows ~jobs:1 !idb plan))
        in
        match result with
        | Error e -> checked p [ label ^ ": " ^ e ]
        | Ok rows ->
            if Random.State.int check_rng 12 = 0 then
              checked p
                (match Query.Unfold.client_query env st.Core.State.query_views q with
                | Error e -> [ label ^ ": unfold: " ^ e ]
                | Ok unfolded ->
                    let expected = Query.Eval.rows env (Exec.Idb.db !idb) unfolded in
                    if List.equal Datum.Row.equal (sorted_rows expected) (sorted_rows rows)
                    then []
                    else [ label ^ ": rows differ from Query.Eval.rows" ]))
    | Ok (Write (label, delta, client')) -> (
        let result =
          timed_op p label @@ fun () ->
          match call r "dml.ivm_step" (fun () -> Dml.Translate.ivm_step !ivm delta) with
          | Error e -> Error e
          | Ok (_script, ivm') ->
              let idb' =
                call r "exec.idb_make" (fun () ->
                    Exec.Idb.make env (Query.Eval.store_db (Dml.Translate.ivm_store ivm')))
              in
              Ok (ivm', idb')
        in
        p.write_ms <- List.hd p.op_ms :: p.write_ms;
        match result with
        | Error e -> checked p [ label ^ ": " ^ e ]
        | Ok (ivm', idb') ->
            ivm := ivm';
            idb := idb';
            client := client')
  done;
  (* The maintained store is the final client state pushed through the
     update views. *)
  match Query.View.apply_update_views env st.Core.State.update_views !client with
  | Ok store when Relational.Instance.equal store (Dml.Translate.ivm_store !ivm) -> ()
  | Ok _ -> checked p [ "final IVM store differs from apply_update_views" ]
  | Error e -> checked p [ "apply_update_views: " ^ e ]
