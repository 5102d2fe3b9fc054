(* One client op, two ways: through the public client call (the
   untraced, end-to-end path) and replayed through the layer calls it
   is made of, each under a span (the traced path).  Both paths must
   give identical results; the workloads check it. *)

open Lazy_xml
module U = Lxu_seglog.Update_log
module Cache = Lxu_seglog.Seg_cache
module Wal = Lxu_storage.Wal
module Wal_store = Lxu_storage.Wal_store
module Join = Lxu_join.Lazy_join

type answer = Pairs of (int * int) list | Count of int

let log_of db = match Lazy_db.log db with Some l -> l | None -> invalid_arg "lazy engine expected"

(* --- reads --------------------------------------------------------------- *)

(* The client read: [Lazy_db.query] for a join, [Path_query.eval_string]
   for a twig.  With [~count:true] a twig returns its cardinality
   ([Path_query.count]), the mixed workload's read. *)
let read ?(count = false) db = function
  | Inputs.Join { anc; desc; _ } -> Pairs (fst (Lazy_db.query db ~anc ~desc ()))
  | Inputs.Twig { expr; _ } ->
    if count then Count (Path_query.count db expr) else Pairs (Path_query.eval_string db expr)

(* Join statistics summed over traced joins. *)
type join_totals = { mutable joins : int; mutable pairs : int; mutable fetched : int; mutable skipped : int }

let join_totals = { joins = 0; pairs = 0; fetched = 0; skipped = 0 }

let reset_join_totals () =
  join_totals.joins <- 0;
  join_totals.pairs <- 0;
  join_totals.fetched <- 0;
  join_totals.skipped <- 0

(* The planner's view of a parsed path, as [Path_query.eval] builds it
   (its own is not exported). *)
let chain_of_steps (steps : Path_query.t) =
  let arr = Array.of_list steps in
  {
    Lxu_plan.Plan.tags = Array.map (fun (s : Path_query.step) -> s.tag) arr;
    axes =
      Array.map
        (fun (s : Path_query.step) ->
          match s.axis with Path_query.Desc -> Lxu_plan.Plan.Desc | Child -> Lxu_plan.Plan.Child)
        arr;
    has_preds = List.exists (fun (s : Path_query.step) -> s.predicates <> []) steps;
  }

(* [Lazy_db.query] is [Lazy_join.run] then [Lazy_join.global_pairs]; a
   twig is [Path_query.parse], [Plan.choose] (side: [eval] plans again
   inside) and [Path_query.eval]. *)
let traced_read ?(count = false) db op =
  let log = log_of db in
  match op with
  | Inputs.Join { anc; desc; _ } ->
    let pairs, st = Trace.span "join.run" (fun () -> Join.run log ~anc ~desc ()) in
    let global = Trace.span "join.global_pairs" (fun () -> Join.global_pairs log pairs) in
    join_totals.joins <- join_totals.joins + 1;
    join_totals.pairs <- join_totals.pairs + Array.length pairs;
    join_totals.fetched <- join_totals.fetched + st.Join.elements_fetched;
    join_totals.skipped <- join_totals.skipped + st.Join.segments_skipped;
    Pairs global
  | Inputs.Twig { expr; _ } ->
    let steps =
      Trace.span "core.parse" (fun () ->
          match Path_query.parse expr with Ok s -> s | Error e -> invalid_arg e)
    in
    ignore
      (Trace.span ~side:true "plan.choose" (fun () ->
           Lxu_plan.Plan.choose ~allow_holistic:(not (U.is_frozen log)) ~log (chain_of_steps steps)));
    let extents = Trace.span "core.eval" (fun () -> Path_query.eval db steps) in
    if count then Count (List.length extents) else Pairs extents

(* Reference answers, computed off the clock on a store built from
   [text] as one segment: joins by the quadratic [Naive_join] over
   global labels, twigs by naive left-to-right evaluation. *)
let reference text ops =
  let db = Lazy_db.create () in
  Lazy_db.insert db ~gp:0 text;
  let log = log_of db in
  List.map
    (function
      | Inputs.Join { anc; desc; _ } ->
        Pairs
          (Lxu_join.Naive_join.join ~anc:(U.global_elements log ~tag:anc)
             ~desc:(U.global_elements log ~tag:desc) ())
      | Inputs.Twig { expr; _ } -> Pairs (Path_query.eval_string ~plan:`Naive db expr))
    ops

let to_count = function Pairs l -> Count (List.length l) | Count _ as c -> c

(* --- writes -------------------------------------------------------------- *)

(* The layers behind a durable [Lazy_db]: a bare update log and a WAL
   store, driven the way [Lazy_db] drives them. *)
type bare = { log : U.t; wal : Wal_store.t; mutable epoch : int }

let bare ~dir =
  let log = U.create () in
  let wal = Wal_store.fresh ~dir ~mode:U.Lazy_dynamic ~index_attributes:false in
  { log; wal; epoch = 0 }

let commit_epoch b =
  b.epoch <- b.epoch + 1;
  Trace.span "seglog.cache_publish" (fun () -> Cache.publish (U.cache b.log) ~epoch:b.epoch)

(* [Lazy_db.insert_many]: [Update_log.insert_batch] plus one WAL record
   group. *)
let traced_insert_many b = function
  | [] -> ()
  | edits ->
    ignore (Trace.span "seglog.insert_batch" (fun () -> U.insert_batch b.log edits));
    Trace.span "storage.wal_log_ops" (fun () ->
        Wal_store.log_ops b.wal (List.map (fun (gp, text) -> Wal.Insert { gp; text }) edits));
    commit_epoch b

(* A WAL insert: [Update_log.insert] plus [Wal_store.log_op] (one
   flush, no fsync). *)
let traced_insert b ~gp text =
  ignore (Trace.span "seglog.insert" (fun () -> U.insert b.log ~gp text));
  Trace.span "storage.wal_append" (fun () -> Wal_store.log_op b.wal (Wal.Insert { gp; text }));
  commit_epoch b

(* [Shared_db.insert]: a WAL insert, then the snapshot publish —
   [Update_log.freeze] and the cache floor push.  Returns the frozen
   log readers pin. *)
let traced_shared_insert b ~gp text =
  traced_insert b ~gp text;
  let frozen = Trace.span "seglog.freeze" (fun () -> U.freeze b.log ~epoch:b.epoch) in
  Trace.span "seglog.cache_reclaim" (fun () -> Cache.reclaim (U.cache b.log) ~floor:b.epoch);
  frozen

(* Bulk load in batches of 64, as every workload's set-up does. *)
let batches edits =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | e :: rest ->
      if n = 64 then go (List.rev cur :: acc) [ e ] 1 rest else go acc (e :: cur) (n + 1) rest
  in
  go [] [] 0 edits

(* --- recovery ------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Recovery replayed by layer: [Update_log.load] of the snapshot (via
   [Recovery.read_snapshot]), [Wal.scan] of the log, then
   [Recovery.replay] of every record past the snapshot's LSN.  Reads
   the directory only.  Returns the recovered log and the number of
   records replayed. *)
let traced_recover ?pstore dir =
  let snap = Wal_store.snapshot_path dir in
  let base =
    if Sys.file_exists snap then
      Some (Trace.span "storage.snapshot_load" (fun () -> Lxu_storage.Recovery.read_snapshot ?pstore ~path:snap ()))
    else None
  in
  let scan = Trace.span "storage.wal_scan" (fun () -> Wal.scan (read_file (Wal_store.wal_path dir))) in
  let lsn0, log =
    match base with
    | Some (lsn, log) -> (lsn, log)
    | None ->
      (0, U.create ~mode:scan.Wal.header.Wal.mode ~index_attributes:scan.Wal.header.Wal.index_attributes ())
  in
  let replayed = ref 0 in
  let log =
    Trace.span "storage.replay" (fun () ->
        List.fold_left
          (fun log (r : Wal.record) ->
            if r.Wal.lsn <= lsn0 then log
            else begin
              incr replayed;
              Lxu_storage.Recovery.replay ?pstore log r.Wal.op
            end)
          log scan.Wal.records)
  in
  (log, !replayed)
