(* The four workloads.  Each drives the public API ([Lazy_db],
   [Path_query], [Shared_db]) from one client thread, closed loop, and
   returns its end-to-end metrics.  In a traced run the same seed is run
   untraced first (the baseline for coverage and overhead) and then
   replayed through the layer calls each op is made of, which gives the
   per-layer metrics.  An oracle mismatch raises [Oracle] and aborts the
   run; it is never counted as a failed op. *)

open Lazy_xml
module U = Lxu_seglog.Update_log
module Cache = Lxu_seglog.Seg_cache
module Page_store = Lxu_storage.Page_store
module Pool = Lxu_storage.Buffer_pool

exception Oracle of string

let check ok msg = if not ok then raise (Oracle msg)

type config = { size : Inputs.size; seed : int; seconds : float; trace : bool; tmp : string }

type outcome = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  attempted : int;
  failed : int;
  notes : string list;  (** human-readable report lines *)
}

(* --- helpers -------------------------------------------------------------- *)

let now = Trace.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile; [nan] on no samples. *)
let pct p samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

let median = pct 50.0
let ms s = s *. 1000.0
let us s = s *. 1e6
let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_counter = ref 0

let fresh_dir cfg name =
  incr dir_counter;
  let d = Filename.concat cfg.tmp (Printf.sprintf "%s-%d" name !dir_counter) in
  rm_rf d;
  d

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. float_of_int (1 lsl 20)

(* Latency samples (seconds) keyed by op slot — a read op's name, or
   "insert" — so the traced replay can be compared slot by slot.  Each
   op is kept as measured and scaled to the reference host speed
   ([Calib]); the end-to-end metrics use the scaled times, the traced
   run's comparisons the measured ones. *)
type samples = {
  by_slot : (string, float list) Hashtbl.t;
  marked_by_slot : (string, (float * int) list) Hashtbl.t;  (** with [Calib.mark] at the op's end *)
  mutable attempted : int;
  mutable failed : int;
}

let samples () = { by_slot = Hashtbl.create 16; marked_by_slot = Hashtbl.create 16; attempted = 0; failed = 0 }

let slot_samples s k = Option.value ~default:[] (Hashtbl.find_opt s.by_slot k)

(* How deep [timed] calls nest: the calibration kernel runs between
   outermost ops only, never inside a timed op. *)
let timed_depth = ref 0

(* Runs one timed client op.  A raise counts as a failure and as a
   latency miss (infinite) — except an oracle mismatch, which aborts. *)
let timed s slot f =
  s.attempted <- s.attempted + 1;
  incr timed_depth;
  let t0 = now () in
  let d =
    match f () with
    | () -> now () -. t0
    | exception (Oracle _ as e) ->
      decr timed_depth;
      raise e
    | exception _ ->
      s.failed <- s.failed + 1;
      infinity
  in
  decr timed_depth;
  Hashtbl.replace s.by_slot slot (d :: slot_samples s slot);
  Hashtbl.replace s.marked_by_slot slot
    ((d, Calib.mark ()) :: Option.value ~default:[] (Hashtbl.find_opt s.marked_by_slot slot));
  if !timed_depth = 0 then Calib.tick ()

(* Every slot's scaled latencies. *)
let scaled s = Hashtbl.fold (fun _ l acc -> List.map (fun (d, k) -> Calib.scale_at k d) l :: acc) s.marked_by_slot []

let scaled_slot s slot = List.map (fun (d, k) -> Calib.scale_at k d) (Hashtbl.find s.marked_by_slot slot)

(* The op mixes are fixed lists of ops of very different cost, and a
   percentile of the pooled mix would jump between op kinds.  The p50 is
   each slot's median scaled latency, averaged over the slots; a tail
   percentile is that p50 times the [p]th percentile of every op's
   latency over its slot's median, pooled over the slots, so it rests on
   all of the run's samples rather than on the few of one slot. *)
let slot_p50 s =
  let per_slot = List.map median (scaled s) in
  sum per_slot /. float_of_int (max 1 (List.length per_slot))

let slot_pct p s =
  let over_median =
    List.concat_map
      (fun l ->
        let m = median l in
        List.map (fun d -> d /. m) l)
      (scaled s)
  in
  slot_p50 s *. pct p over_median

(* The same p50 from the measured (unscaled) latencies, for the report. *)
let measured_p50 s =
  let per_slot = Hashtbl.fold (fun _ l acc -> median l :: acc) s.by_slot [] in
  sum per_slot /. float_of_int (max 1 (List.length per_slot))

(* Completed ops per second of scaled op latency. *)
let throughput s =
  float_of_int (s.attempted - s.failed) /. sum (List.filter Float.is_finite (List.concat (scaled s)))

(* Runs [cycle] (which times its own ops) [n] times.  Every phase starts
   from a collected major heap and a fresh calibration window. *)
let loop n cycle =
  Gc.full_major ();
  Calib.prime ();
  for _ = 1 to n do
    cycle ()
  done

(* How many cycles a timed phase runs: [per_s] per second of run length,
   sized so that a full-size phase lasts about that long on a 2-core
   host.  The count follows from the length, not from the clock, so
   every run of one length does the same work.  A traced run splits its
   length between the untraced and the traced pass. *)
let cycles cfg ~per_s =
  match cfg.size with
  | Inputs.Tiny -> 1
  | Inputs.Full ->
    let seconds = if cfg.trace then cfg.seconds /. 2.0 else cfg.seconds in
    max 1 (Float.to_int (Float.round (per_s *. seconds)))

let metric name value unit_ = (name, value, unit_)

(* A run is [rounds] rounds of set-up, timed phase, close and recover
   (ingest_wal, whose round is long, runs fewer and tops its set-up
   samples up to [rounds]; the read workloads keep one warm store and
   set up and recover a second one between four read phases).
   Spreading the set-up and recovery samples over the run, rather than
   timing them back to back, keeps one slow stretch of a shared host
   from moving a whole metric. *)
let rounds = 5

(* The cycles of round [r] (from 1) when [n] cycles are split over
   [rounds] rounds. *)
let share ~rounds n r = max 1 ((n / rounds) + if r <= n mod rounds then 1 else 0)

(* What the untraced rounds accumulate: the ops, and the scaled set-up
   and recovery times. *)
type acc = { ops : samples; mutable setups : float list; mutable recovers : float list }

let acc () = { ops = samples (); setups = []; recovers = [] }

(* Times a set-up, from a collected major heap; returns its result and
   the scaled time. *)
let timed_setup f =
  Gc.full_major ();
  let r, _, scaled = Calib.time f in
  (r, scaled)

(* Times [recover] [times] times, each from a collected major heap, and
   returns the last result ([close] gets the others).  The run's first
   recovery is an untimed warm-up. *)
let timed_recoveries ?(times = 1) a ~close recover =
  if a.recovers = [] then close (recover ());
  let once () =
    Gc.full_major ();
    let x, _, r = Calib.time recover in
    a.recovers <- r :: a.recovers;
    x
  in
  for _ = 2 to times do
    close (once ())
  done;
  once ()

(* The end-to-end metrics every workload reports: the client op's
   latency and throughput, set-up and recovery time, space and memory.
   Times are scaled to the reference host speed ([Calib]). *)
let e2e a ~index_ratio ~wal_ratio =
  [
    metric "setup_s" (median a.setups) "s";
    metric "op_p50_ms" (ms (slot_p50 a.ops)) "ms";
    metric "ops_per_s" (throughput a.ops) "1/s";
    metric "recover_s" (median a.recovers) "s";
    metric "index_bytes_per_doc_byte" index_ratio "ratio";
    metric "wal_bytes_per_doc_byte" wal_ratio "ratio";
    metric "top_heap_mb" (top_heap_mb ()) "MiB";
  ]

let text_bytes edits = List.fold_left (fun acc (_, t) -> acc + String.length t) 0 edits

(* The per-layer metrics shared by every workload, from the spans and
   counters of the traced pass.  [log] is the final update log;
   [cache0]/[cache1] and [pool0]/[pool1] are counter snapshots around the
   traced read phase; [coverage]/[coverage_recover]/[overhead] compare
   the layer replays with their paired client ops. *)
type layer_inputs = {
  log : U.t;
  fragments : string list;  (** fragments parsed for xml.parse_us_per_kb *)
  batched_segs : int;
  shifts : int * int;  (** gp_shifts, nodes_visited over the single-insert replay *)
  singles : int;
  cache0 : Cache.stats;
  cache1 : Cache.stats;
  pool0 : Pool.stats option;
  pool1 : Pool.stats option;
  wal_bytes : int;
  wal_records : int;
  replayed : int;
  checkpoint_s : float;
  attached : bool;
  coverage : float;
  coverage_recover : float;
  overhead : float;
}

let layer_metrics li =
  let d = Trace.durations in
  let parse_s, kb =
    let bytes = List.fold_left (fun acc f -> acc + String.length f) 0 li.fragments in
    let (), s =
      time (fun () -> List.iter (fun f -> ignore (Lxu_xml.Parser.parse_fragment f)) li.fragments)
    in
    (s, float_of_int bytes /. 1024.0)
  in
  (* Update_log.elements_of straight off the element index, for every
     (tag, segment) the read ops touch. *)
  let elements_of =
    let tags =
      List.sort_uniq compare
        (List.concat_map
           (function
             | Inputs.Join { anc; desc; _ } -> [ anc; desc ]
             | Inputs.Twig { expr; _ } ->
               List.map (fun (s : Path_query.step) -> s.tag) (Path_query.parse_exn expr))
           Inputs.read_ops)
    in
    let reg = U.registry li.log in
    List.concat_map
      (fun tag ->
        match Lxu_seglog.Tag_registry.find reg tag with
        | None -> []
        | Some tid ->
          Array.to_list (U.segments_for_tag li.log ~tag)
          |> List.map (fun (e : Lxu_seglog.Tag_list.entry) ->
                 snd (time (fun () -> ignore (U.elements_of li.log ~tid ~sid:e.sid)))))
      tags
  in
  let fs = U.frag_stats li.log in
  let doc = max 1 (U.doc_length li.log) in
  let delta f = f li.cache1 - f li.cache0 in
  let lookups = delta (fun s -> s.Cache.lookups) in
  let pool f = match (li.pool0, li.pool1) with Some a, Some b -> f b - f a | _ -> 0 in
  let jt = Ops.join_totals in
  [
    metric "xml.parse_us_per_kb" (us parse_s /. kb) "us/KiB";
    metric "seglog.insert_p50_ms" (ms (median (d "seglog.insert"))) "ms";
    metric "seglog.insert_p99_ms" (ms (pct 99.0 (d "seglog.insert"))) "ms";
    metric "seglog.insert_batch_us_per_seg"
      (us (sum (d "seglog.insert_batch")) /. float_of_int (max 1 li.batched_segs))
      "us/seg";
    metric "seglog.gp_shifts_per_insert" (ratio (fst li.shifts) li.singles) "count";
    metric "seglog.nodes_visited_per_insert" (ratio (snd li.shifts) li.singles) "count";
    metric "seglog.freeze_p50_ms" (ms (median (d "seglog.freeze"))) "ms";
    metric "seglog.freeze_p99_ms" (ms (pct 99.0 (d "seglog.freeze"))) "ms";
    metric "seglog.cache_hit_rate" (ratio (delta (fun s -> s.Cache.hits)) lookups) "ratio";
    metric "seglog.cache_evictions" (float_of_int (delta (fun s -> s.Cache.evictions))) "count";
    metric "seglog.cache_invalidations" (float_of_int (delta (fun s -> s.Cache.invalidations))) "count";
    metric "seglog.sb_bytes_per_doc_byte" (ratio (U.sb_size_bytes li.log) doc) "ratio";
    metric "seglog.tag_list_bytes_per_doc_byte" (ratio (U.tag_list_size_bytes li.log) doc) "ratio";
    metric "seglog.segments" (float_of_int fs.U.live_segments) "count";
    metric "seglog.er_depth" (float_of_int fs.U.er_depth) "count";
    metric "plan.choose_us" (us (median (d "plan.choose"))) "us";
    metric "join.run_ms" (ms (median (d "join.run"))) "ms";
    metric "join.global_pairs_ms" (ms (median (d "join.global_pairs"))) "ms";
    metric "join.pairs_per_op" (ratio jt.Ops.pairs jt.Ops.joins) "count";
    metric "join.elements_fetched_per_pair" (ratio jt.Ops.fetched jt.Ops.pairs) "ratio";
    metric "join.segments_skipped_per_op" (ratio jt.Ops.skipped jt.Ops.joins) "count";
    metric "core.query_parse_us" (us (median (d "core.parse"))) "us";
    metric "core.twig_eval_ms" (ms (median (d "core.eval"))) "ms";
    metric "btree.elements_of_us" (us (median elements_of)) "us";
    metric "storage.wal_append_p50_us" (us (median (d "storage.wal_append"))) "us";
    metric "storage.wal_append_p99_us" (us (pct 99.0 (d "storage.wal_append"))) "us";
    metric "storage.wal_bytes_per_op" (ratio li.wal_bytes li.wal_records) "B";
    metric "storage.wal_scan_ms" (ms (median (d "storage.wal_scan"))) "ms";
    metric "storage.replayed_records" (float_of_int li.replayed) "count";
    metric "storage.snapshot_load_ms" (ms (median (d "storage.snapshot_load"))) "ms";
    metric "storage.checkpoint_ms" (ms li.checkpoint_s) "ms";
    metric "storage.recover_attached" (if li.attached then 1.0 else 0.0) "count";
    metric "storage.pool_hit_rate"
      (ratio (pool (fun p -> p.Pool.hits)) (pool (fun p -> p.Pool.lookups)))
      "ratio";
    metric "storage.pool_evictions" (float_of_int (pool (fun p -> p.Pool.evictions))) "count";
    metric "storage.pool_writebacks" (float_of_int (pool (fun p -> p.Pool.writebacks))) "count";
    metric "trace.coverage" li.coverage "ratio";
    metric "trace.coverage_recover" li.coverage_recover "ratio";
    metric "trace.overhead_frac" li.overhead "ratio";
  ]

(* Coverage and overhead for the op kind whose traced roots are named
   [root ^ slot]: per slot, the median of the summed layer self times
   and of the traced op, against the untraced median of the same slot;
   summed over slots. *)
let attribution ~root ~slots untraced =
  let rows =
    List.filter_map
      (fun slot ->
        match Trace.attributed (root ^ slot) with
        | [] -> None
        | l -> Some (median (List.map fst l), median (List.map snd l), median (slot_samples untraced slot)))
      slots
  in
  let traced = sum (List.map (fun (t, _, _) -> t) rows)
  and layers = sum (List.map (fun (_, l, _) -> l) rows)
  and base = sum (List.map (fun (_, _, b) -> b) rows) in
  (layers /. base, traced /. base -. 1.0)

(* A traced run pairs every client op with its layer replay, back to
   back so both see the same stretch of a noisy host, in alternating
   order so neither always inherits the other's warm caches.  [k]
   numbers the pair. *)
let paired k ~client ~traced =
  if k land 1 = 0 then
    let c = client () in
    (c, traced ())
  else
    let t = traced () in
    (client (), t)

(* Recovery in a traced run: [times] pairs of the client call and its
   layer replay, each from a collected major heap.  [check] inspects and
   closes each client result; [release] frees each replay but the last
   before the next recovery opens the directory, and the last pair runs
   client first, so no two handles on the directory are ever open at
   once.  Returns the client durations and the last replay. *)
let paired_recoveries ?(times = 5) ~client ~check ~replay ~release () =
  let durations = ref [] and last = ref None in
  for k = 1 to times do
    let final = k = times in
    let r, () =
      paired (if final then 0 else k)
        ~client:(fun () ->
          Gc.full_major ();
          let x, r = time client in
          check x;
          r)
        ~traced:(fun () ->
          Gc.full_major ();
          let x = Trace.op "op.recover" replay in
          if final then last := Some x else release x)
    in
    durations := r :: !durations
  done;
  (!durations, Option.get !last)

let coverage_recover recover_samples =
  match Trace.attributed "op.recover" with
  | [] -> 0.0
  | l -> median (List.map snd l) /. median recover_samples

(* Per-kind coverage report lines: a gap above 10% is unattributed. *)
let coverage_note kind c =
  Printf.sprintf "trace: %s coverage %.3f%s" kind c
    (if Float.abs (1.0 -. c) > 0.10 then " (unattributed gap > 10%)" else "")

let stats_of db = match Lazy_db.cache_stats db with Some s -> s | None -> assert false

(* The write replay that gives seglog.insert*, gp shifts and WAL-append
   figures on a read workload: the set-up edits applied one at a time
   to a bare log with a WAL, plus the batched load on a second one. *)
let side_writes cfg edits =
  let b = Ops.bare ~dir:(fresh_dir cfg "side-single") in
  let m0 = U.metrics b.Ops.log in
  let s0 = (m0.U.gp_shifts, m0.U.nodes_visited) in
  List.iter (fun (gp, text) -> Trace.op "side.insert" (fun () -> Ops.traced_insert b ~gp text)) edits;
  let m1 = U.metrics b.Ops.log in
  let shifts = (m1.U.gp_shifts - fst s0, m1.U.nodes_visited - snd s0) in
  let wal_bytes = Lxu_storage.Wal_store.wal_bytes b.Ops.wal in
  let batched = Ops.bare ~dir:(fresh_dir cfg "side-batch") in
  List.iter (Ops.traced_insert_many batched) (Ops.batches edits);
  check (U.materialize batched.Ops.log = U.materialize b.Ops.log) "batched and single replays differ";
  Lxu_storage.Wal_store.close b.Ops.wal;
  Lxu_storage.Wal_store.close batched.Ops.wal;
  (shifts, wal_bytes)

let side_freezes log =
  for _ = 1 to 100 do
    ignore (Trace.op "side.freeze" (fun () -> Trace.span "seglog.freeze" (fun () -> U.freeze log ~epoch:0)))
  done

(* One traced pass of every read op over [db], off the e2e path: the
   join and twig layers on a store whose workload has no reads. *)
let side_reads db =
  List.iter (fun op -> ignore (Trace.op "side.read" (fun () -> Ops.traced_read db op))) Inputs.read_ops

(* storage.checkpoint_ms where the workload takes no checkpoint of its
   final state: [Lazy_db.checkpoint] of that state, recovered from [dir]. *)
let checkpoint_after_recover dir =
  let db, _ = Lazy_db.recover dir in
  Gc.full_major ();
  let (), s = time (fun () -> Lazy_db.checkpoint db) in
  Lazy_db.close db;
  s

(* --- query_xmark and paged_beyond_ram --------------------------------------- *)

let pool_bytes = function Inputs.Full -> 512 * 1024 | Inputs.Tiny -> 32 * 1024

let read_workload cfg ~paged =
  let edits = Inputs.join_doc cfg.size ~seed:cfg.seed in
  let ops = Array.of_list Inputs.read_ops in
  let slots = List.map Inputs.op_name Inputs.read_ops in
  (* query_xmark's store (in memory, no WAL) and the reference answers,
     all off the clock. *)
  let mem = Lazy_db.create () in
  List.iter (Lazy_db.insert_many mem) (Ops.batches edits);
  let text = Lazy_db.text mem in
  let reference = Array.of_list (Ops.reference text Inputs.read_ops) in
  let check_answers what answer =
    Array.iteri (fun i op -> check (answer i op = reference.(i)) (what ^ ": " ^ Inputs.op_name op)) ops
  in
  check_answers "query_xmark answer differs from the reference" (fun _ op -> Ops.read mem op);
  let storage = if paged then `Paged else `Mem in
  (* Beyond RAM: the buffer pool and the element cache share one small
     budget, so reads past the warm-up still go to the paged index. *)
  if paged then begin
    Unix.putenv "LXU_POOL_BYTES" (string_of_int (pool_bytes cfg.size));
    Unix.putenv "LXU_CACHE_BYTES" (string_of_int (pool_bytes cfg.size))
  end;
  let index_pages = ref 0 in
  (* A checkpointed store: the timed set-up. *)
  let build () =
    let dir = fresh_dir cfg "db" in
    let (db, wal), s =
      timed_setup (fun () ->
          let db = Lazy_db.create ~durability:(`Wal dir) ~storage () in
          List.iter (Lazy_db.insert_many db) (Ops.batches edits);
          let wal = Option.get (Lazy_db.wal_bytes db) in
          Lazy_db.checkpoint db;
          (db, wal))
    in
    (match Lazy_db.page_stats db with
    | Some st ->
      index_pages := st.Page_store.pages * st.Page_store.page_size;
      check (!index_pages >= 2 * pool_bytes cfg.size)
        (Printf.sprintf "paged index (%d B) is not >= 2x the pool (%d B)" !index_pages (pool_bytes cfg.size))
    | None -> ());
    (db, dir, wal, s)
  in
  (* The store the reads run on, after a warm-up cycle that fills the
     cache and pool; its answers are checked. *)
  let setup () =
    let ((db, _, _, _) as store) = build () in
    check_answers "answer differs from query_xmark's" (fun _ op -> Ops.read db op);
    store
  in
  (* A recovered store holds the text; on paged storage it must have
     attached the paged indexes (page checkpoint LSN = snapshot LSN). *)
  let attached = ref false in
  let check_recovered (db2, report) =
    check (Lazy_db.text db2 = text) "recovered text differs";
    let lsn = report.Lxu_storage.Recovery.snapshot_lsn in
    (attached :=
       match Lazy_db.page_stats db2 with Some st -> lsn > 0 && st.Page_store.ckpt_lsn = lsn | None -> false);
    check (!attached || not paged) "paged recovery did not attach";
    Lazy_db.close db2
  in
  (* A cycle (11 reads) takes about 0.7 s on an unloaded host: a 10 s
     run times 13 or 14 samples of every read. *)
  let n = cycles cfg ~per_s:(if paged then 1.3 else 1.4) in
  let notes (s : samples) =
    [
      Printf.sprintf "document: %d bytes, %d segments; index %d B%s" (String.length text)
        (Lazy_db.segment_count mem) (Lazy_db.size_bytes mem)
        (if paged then Printf.sprintf ", on pages %d B vs pool %d B" !index_pages (pool_bytes cfg.size) else "");
      Printf.sprintf "query_p50_ms %.4f ms, query_p90_ms %.4f ms, query_p95_ms %.4f ms, query_per_s %.2f /s (%d samples)"
        (ms (slot_p50 s)) (ms (slot_pct 90.0 s)) (ms (slot_pct 95.0 s)) (throughput s) s.attempted;
    ]
    @ List.map
        (fun slot ->
          Printf.sprintf "  %s p50 %.4f ms (measured %.4f ms)" slot
            (ms (median (scaled_slot s slot)))
            (ms (median (slot_samples s slot))))
        slots
  in
  if not cfg.trace then begin
    let a = acc () in
    let last = Array.make (Array.length ops) (Ops.Count 0) in
    let db, dir, wal, st = setup () in
    a.setups <- [ st ];
    (* Each round: a read phase on the warm store, then the set-up and
       recovery of a second store, so the set-up and recovery samples
       spread over the run. *)
    let rounds = 4 in
    for r = 1 to rounds do
      loop (share ~rounds n r) (fun () ->
          Array.iteri (fun i op -> timed a.ops (Inputs.op_name op) (fun () -> last.(i) <- Ops.read db op)) ops);
      check_answers "answer changed under load" (fun i _ -> last.(i));
      let db2, dir2, _, st = build () in
      a.setups <- st :: a.setups;
      Lazy_db.close db2;
      check_recovered
        (timed_recoveries ~times:2 a ~close:(fun (d, _) -> Lazy_db.close d) (fun () -> Lazy_db.recover ~storage dir2));
      rm_rf dir2
    done;
    check (Lazy_db.text db = text) "final text differs";
    let index_ratio = ratio (Lazy_db.size_bytes db) (Lazy_db.doc_length db) in
    Lazy_db.close db;
    rm_rf dir;
    {
      metrics = e2e a ~index_ratio ~wal_ratio:(ratio wal (text_bytes edits));
      attempted = a.ops.attempted;
      failed = a.ops.failed;
      notes = notes a.ops @ [ Printf.sprintf "measured op_p50_ms %.4f" (ms (measured_p50 a.ops)); Calib.report () ];
    }
  end
  else begin
    (* Every read twice: the client call and its layer replay. *)
    let db, dir, _, _ = setup () in
    let base = samples () in
    let pool_stats () = Option.map (fun st -> st.Page_store.pool) (Lazy_db.page_stats db) in
    let cache0 = stats_of db and pool0 = pool_stats () in
    Trace.on := true;
    loop n (fun () ->
        Array.iteri
          (fun i op ->
            let slot = Inputs.op_name op in
            let c = ref (Ops.Count 0) in
            let (), r =
              paired base.attempted
                ~client:(fun () -> timed base slot (fun () -> c := Ops.read db op))
                ~traced:(fun () -> Trace.op ("op.read:" ^ slot) (fun () -> Ops.traced_read db op))
            in
            check (!c = reference.(i) && r = reference.(i)) ("client or traced answer differs: " ^ slot))
          ops);
    let cache1 = stats_of db and pool1 = pool_stats () in
    let shifts, wal_bytes = side_writes cfg edits in
    side_freezes (Ops.log_of db);
    let (), checkpoint_s = time (fun () -> Lazy_db.checkpoint db) in
    Lazy_db.close db;
    let open_pstore () =
      if paged then
        Some
          (Trace.span "storage.page_store_open" (fun () ->
               Page_store.open_existing
                 ~device:(Lxu_storage.Sim_file.open_path ~append:true (Filename.concat dir "pages"))
                 ()))
      else None
    in
    let recovers, (rlog, replayed, pstore) =
      paired_recoveries
        ~client:(fun () -> Lazy_db.recover ~storage dir)
        ~check:check_recovered
        ~replay:(fun () ->
          let pstore = open_pstore () in
          let log, n = Ops.traced_recover ?pstore dir in
          (log, n, pstore))
        ~release:(fun (_, _, ps) -> Option.iter Page_store.close ps)
        ()
    in
    Trace.on := false;
    check (U.materialize rlog = text) "traced recovery differs";
    let coverage, overhead = attribution ~root:"op.read:" ~slots base in
    let cov_rec = coverage_recover recovers in
    let metrics =
      layer_metrics
        {
          log = rlog;
          fragments = List.map snd edits;
          batched_segs = List.length edits;
          shifts;
          singles = List.length edits;
          cache0;
          cache1;
          pool0;
          pool1;
          wal_bytes;
          wal_records = List.length edits;
          replayed;
          checkpoint_s;
          attached = !attached;
          coverage;
          coverage_recover = cov_rec;
          overhead;
        }
    in
    Option.iter Page_store.close pstore;
    rm_rf dir;
    let q_cov, _ = attribution ~root:"op.read:" ~slots:(List.map Inputs.op_name Inputs.joins) base in
    let t_cov, _ = attribution ~root:"op.read:" ~slots:(List.map Inputs.op_name Inputs.twigs) base in
    {
      metrics;
      attempted = base.attempted;
      failed = base.failed;
      notes =
        notes base
        @ [
            coverage_note "query (Lazy_db.query)" q_cov;
            coverage_note "twig (Path_query.eval_string)" t_cov;
            coverage_note "recover" cov_rec;
            Printf.sprintf "trace: overhead_frac %.4f" overhead;
          ];
    }
  end

(* --- ingest_wal ----------------------------------------------------------- *)

let ingest cfg =
  let bulk, writes, expected = Inputs.ingest cfg.size ~seed:cfg.seed in
  let inserted = text_bytes bulk + text_bytes writes in
  let setup dir =
    timed_setup (fun () ->
        let db = Lazy_db.create ~durability:(`Wal dir) () in
        List.iter (Lazy_db.insert_many db) (Ops.batches bulk);
        db)
  in
  let check_recovered (db2, _) =
    check (Lazy_db.text db2 = expected) "recovered text differs from the expected string";
    Lazy_db.close db2
  in
  let notes (s : samples) =
    [
      Printf.sprintf "document: %d bytes, %d bulk + %d single inserts" (String.length expected)
        (List.length bulk) (List.length writes);
      Printf.sprintf "write_p50_ms %.4f ms, write_p99_ms %.4f ms, write_segs_per_s %.1f /s (%d samples)"
        (ms (slot_p50 s)) (ms (slot_pct 99.0 s)) (throughput s) s.attempted;
    ]
  in
  if not cfg.trace then begin
    let a = acc () in
    let index_ratio = ref 0.0 and wal = ref 0 in
    (* A round takes about 7 s at full size; three rounds in a 10 s run
       give six recovery samples. *)
    for _ = 1 to cycles cfg ~per_s:0.3 do
      let dir = fresh_dir cfg "db" in
      let db, st = setup dir in
      a.setups <- st :: a.setups;
      Gc.full_major ();
      Calib.prime ();
      List.iter (fun (gp, frag) -> timed a.ops "insert" (fun () -> Lazy_db.insert db ~gp frag)) writes;
      check (Lazy_db.text db = expected) "final text differs from the expected string";
      index_ratio := ratio (Lazy_db.size_bytes db) (Lazy_db.doc_length db);
      wal := Option.get (Lazy_db.wal_bytes db);
      Lazy_db.close db;
      for _ = 1 to 2 do
        Gc.full_major ();
        let db2, _, r = Calib.time (fun () -> Lazy_db.recover dir) in
        a.recovers <- r :: a.recovers;
        check_recovered db2
      done;
      rm_rf dir
    done;
    while List.length a.setups < rounds do
      let dir = fresh_dir cfg "setup" in
      let db, st = setup dir in
      Lazy_db.close db;
      rm_rf dir;
      a.setups <- st :: a.setups
    done;
    {
      metrics = e2e a ~index_ratio:!index_ratio ~wal_ratio:(ratio !wal inserted);
      attempted = a.ops.attempted;
      failed = a.ops.failed;
      notes = notes a.ops @ [ Printf.sprintf "measured op_p50_ms %.4f" (ms (measured_p50 a.ops)); Calib.report () ];
    }
  end
  else begin
    (* The client store and a bare log with a WAL, loaded alike; every
       insert goes to the client and through its layer calls.  The two
       WAL files must be byte-identical. *)
    let dir = fresh_dir cfg "db" and tdir = fresh_dir cfg "traced" in
    let db, _ = setup dir in
    Trace.on := true;
    let b = Ops.bare ~dir:tdir in
    List.iter (Ops.traced_insert_many b) (Ops.batches bulk);
    let m0 = U.metrics b.Ops.log in
    let s0 = (m0.U.gp_shifts, m0.U.nodes_visited) in
    let base = samples () in
    List.iter
      (fun (gp, frag) ->
        ignore
          (paired base.attempted
             ~client:(fun () -> timed base "insert" (fun () -> Lazy_db.insert db ~gp frag))
             ~traced:(fun () -> Trace.op "op.insert:insert" (fun () -> Ops.traced_insert b ~gp frag))))
      writes;
    let m1 = U.metrics b.Ops.log in
    let shifts = (m1.U.gp_shifts - fst s0, m1.U.nodes_visited - snd s0) in
    let wal_bytes = Lxu_storage.Wal_store.wal_bytes b.Ops.wal in
    check (Lazy_db.text db = expected) "final text differs from the expected string";
    Lazy_db.close db;
    Lxu_storage.Wal_store.close b.Ops.wal;
    check (U.materialize b.Ops.log = expected) "traced replay text differs";
    let wal_file d = Ops.read_file (Lxu_storage.Wal_store.wal_path d) in
    check (wal_file tdir = wal_file dir) "traced WAL differs from the client's";
    let cache0 = Cache.stats (U.cache b.Ops.log) in
    side_reads (Lazy_db.of_log b.Ops.log);
    let cache1 = Cache.stats (U.cache b.Ops.log) in
    side_freezes b.Ops.log;
    let recovers, (rlog, replayed) =
      paired_recoveries ~times:2
        ~client:(fun () -> Lazy_db.recover dir)
        ~check:check_recovered
        ~replay:(fun () -> Ops.traced_recover tdir)
        ~release:ignore ()
    in
    check (U.materialize rlog = expected) "traced recovery differs";
    (* No snapshot in this workload's directory: time Update_log.load of
       a saved copy of the final log instead. *)
    let snap = Filename.concat tdir "side-snapshot" in
    Out_channel.with_open_bin snap (U.save rlog);
    ignore (In_channel.with_open_bin snap (fun ic -> Trace.span "storage.snapshot_load" (fun () -> U.load ic)));
    Trace.on := false;
    let checkpoint_s = checkpoint_after_recover dir in
    rm_rf dir;
    rm_rf tdir;
    let coverage, overhead = attribution ~root:"op.insert:" ~slots:[ "insert" ] base in
    let cov_rec = coverage_recover recovers in
    {
      metrics =
        layer_metrics
          {
            log = rlog;
            fragments = List.map snd writes;
            batched_segs = List.length bulk;
            shifts;
            singles = List.length writes;
            cache0;
            cache1;
            pool0 = None;
            pool1 = None;
            wal_bytes;
            wal_records = List.length bulk + List.length writes;
            replayed;
            checkpoint_s;
            attached = false;
            coverage;
            coverage_recover = cov_rec;
            overhead;
          };
      attempted = base.attempted;
      failed = base.failed;
      notes =
        notes base
        @ [
            coverage_note "insert (Lazy_db.insert)" coverage;
            coverage_note "recover" cov_rec;
            Printf.sprintf "trace: overhead_frac %.4f" overhead;
          ];
    }
  end

(* --- mixed_snapshot ------------------------------------------------------- *)

let mixed cfg =
  let bulk, stream = Inputs.mixed cfg.size ~seed:cfg.seed in
  let twigs = Array.of_list Inputs.twigs in
  let slots = List.map Inputs.op_name Inputs.twigs in
  let setup () =
    let dir = fresh_dir cfg "db" in
    let (t, wal), s =
      timed_setup (fun () ->
          let t = Shared_db.create ~durability:(`Wal dir) () in
          List.iter (Shared_db.insert_many t) (Ops.batches bulk);
          let wal = Shared_db.write t (fun db -> Option.get (Lazy_db.wal_bytes db)) in
          Shared_db.checkpoint t;
          (t, wal))
    in
    (t, dir, wal, s)
  in
  (* One client: an insert (with its snapshot publish), then a twig count
     in a pinned snapshot.  The op is the pair; a cycle is one pair per
     twig, ten cycles a second. *)
  let n = cycles cfg ~per_s:10.0 in
  let pair t ~gp frag op =
    Shared_db.insert t ~gp frag;
    Shared_db.read t (fun db -> Ops.read ~count:true db op)
  in
  let check_recovered final_text (t2, _) =
    check (Shared_db.read t2 Lazy_db.text = final_text) "recovered text differs";
    Shared_db.close t2
  in
  (* Final counts against a freshly built store over the same text. *)
  let check_final t =
    let final_text = Shared_db.read t Lazy_db.text in
    check
      (Shared_db.read t (fun db -> List.map (Ops.read ~count:true db) Inputs.twigs)
      = List.map Ops.to_count (Ops.reference final_text Inputs.twigs))
      "final counts differ from a freshly built store";
    final_text
  in
  if not cfg.trace then begin
    let a = acc () and writes = samples () and reads = samples () in
    let first = ref None and index_ratio = ref 0.0 and wal_ratio = ref 0.0 in
    for r = 1 to rounds do
      let t, dir, bulk_wal, st = setup () in
      a.setups <- st :: a.setups;
      (* Every round replays the same insert stream from the same load,
         so every round must give the same counts. *)
      let next = stream () in
      let counts = ref [] and inserted = ref 0 in
      loop (share ~rounds n r) (fun () ->
          Array.iter
            (fun op ->
              let gp, frag = next () in
              let slot = Inputs.op_name op in
              let c = ref (Ops.Count 0) in
              timed a.ops slot (fun () ->
                  timed writes "insert" (fun () -> Shared_db.insert t ~gp frag);
                  timed reads slot (fun () -> c := Shared_db.read t (fun db -> Ops.read ~count:true db op)));
              inserted := !inserted + String.length frag;
              counts := !c :: !counts)
            twigs);
      (match !first with
      | None -> first := Some !counts
      | Some f -> check (f = !counts) "a round's counts differ from the first round's");
      let final_text = if r = rounds then check_final t else Shared_db.read t Lazy_db.text in
      Shared_db.write t (fun db ->
          index_ratio := ratio (Lazy_db.size_bytes db) (Lazy_db.doc_length db);
          wal_ratio := ratio (bulk_wal + Option.get (Lazy_db.wal_bytes db)) (text_bytes bulk + !inserted));
      Shared_db.close t;
      check_recovered final_text
        (timed_recoveries ~times:3 a ~close:(fun (t, _) -> Shared_db.close t) (fun () -> Shared_db.recover dir));
      rm_rf dir
    done;
    let notes =
      [
        Printf.sprintf "document: %d bytes bulk-loaded as %d segments; %d inserts per round" (text_bytes bulk)
          (List.length bulk) (writes.attempted / rounds);
        Printf.sprintf "write_p50_ms %.4f ms, write_p99_ms %.4f ms, write_segs_per_s %.1f /s (%d samples)"
          (ms (slot_p50 writes)) (ms (slot_pct 99.0 writes))
          (float_of_int (writes.attempted - writes.failed) /. sum (List.concat (scaled a.ops))) writes.attempted;
        Printf.sprintf "query_p50_ms %.4f ms, query_p95_ms %.4f ms, query_per_s %.2f /s (%d samples)"
          (ms (slot_p50 reads)) (ms (slot_pct 95.0 reads))
          (float_of_int (reads.attempted - reads.failed) /. sum (List.concat (scaled a.ops))) reads.attempted;
        Printf.sprintf "measured op_p50_ms %.4f" (ms (measured_p50 a.ops));
        Calib.report ();
      ]
    in
    {
      metrics = e2e a ~index_ratio:!index_ratio ~wal_ratio:!wal_ratio;
      attempted = writes.attempted + reads.attempted;
      failed = writes.failed + reads.failed;
      notes;
    }
  end
  else begin
    (* The client's Shared_db and a bare log with a WAL, loaded alike;
       every pair goes to the client and through its layer calls, and
       both must count alike. *)
    let t, dir, _, _ = setup () in
    let b = Ops.bare ~dir:(fresh_dir cfg "traced") in
    Cache.reclaim (U.cache b.Ops.log) ~floor:0;
    Trace.on := true;
    List.iter (Ops.traced_insert_many b) (Ops.batches bulk);
    let cache0 = Cache.stats (U.cache b.Ops.log) in
    let m0 = U.metrics b.Ops.log in
    let s0 = (m0.U.gp_shifts, m0.U.nodes_visited) in
    let base = samples () in
    let next = stream () in
    let fragments = ref [] in
    loop n (fun () ->
        Array.iter
          (fun op ->
            let gp, frag = next () in
            let slot = Inputs.op_name op in
            let c = ref (Ops.Count 0) in
            let (), r =
              paired base.attempted
                ~client:(fun () -> timed base slot (fun () -> c := pair t ~gp frag op))
                ~traced:(fun () ->
                  Trace.op ("op.iter:" ^ slot) (fun () ->
                      let frozen = Ops.traced_shared_insert b ~gp frag in
                      Ops.traced_read ~count:true (Lazy_db.of_log frozen) op))
            in
            check (r = !c) ("traced count differs from the client's: " ^ slot);
            fragments := frag :: !fragments)
          twigs);
    let cache1 = Cache.stats (U.cache b.Ops.log) in
    let m1 = U.metrics b.Ops.log in
    let shifts = (m1.U.gp_shifts - fst s0, m1.U.nodes_visited - snd s0) in
    let wal_bytes = Lxu_storage.Wal_store.wal_bytes b.Ops.wal in
    Lxu_storage.Wal_store.close b.Ops.wal;
    let final_text = check_final t in
    check (U.materialize b.Ops.log = final_text) "traced replay text differs";
    Shared_db.close t;
    side_reads (Lazy_db.of_log b.Ops.log);
    let recovers, (rlog, replayed) =
      paired_recoveries
        ~client:(fun () -> Shared_db.recover dir)
        ~check:(check_recovered final_text)
        ~replay:(fun () -> Ops.traced_recover dir)
        ~release:ignore ()
    in
    check (U.materialize rlog = final_text) "traced recovery differs";
    Trace.on := false;
    let checkpoint_s = checkpoint_after_recover dir in
    rm_rf dir;
    let coverage, overhead = attribution ~root:"op.iter:" ~slots base in
    let cov_rec = coverage_recover recovers in
    {
      metrics =
        layer_metrics
          {
            log = rlog;
            fragments = !fragments;
            batched_segs = List.length bulk;
            shifts;
            singles = List.length !fragments;
            cache0;
            cache1;
            pool0 = None;
            pool1 = None;
            wal_bytes;
            wal_records = List.length bulk + List.length !fragments;
            replayed;
            checkpoint_s;
            attached = false;
            coverage;
            coverage_recover = cov_rec;
            overhead;
          };
      attempted = base.attempted;
      failed = base.failed;
      notes =
        [
          Printf.sprintf "document: %d bytes bulk-loaded as %d segments; %d pairs replayed" (text_bytes bulk)
            (List.length bulk) base.attempted;
          coverage_note "insert+read (Shared_db.insert, Shared_db.read)" coverage;
          coverage_note "recover" cov_rec;
          Printf.sprintf "trace: overhead_frac %.4f" overhead;
        ];
    }
  end

let names = [ "ingest_wal"; "query_xmark"; "mixed_snapshot"; "paged_beyond_ram" ]

(* [paged_beyond_ram] shrinks the process's pool and cache budgets, so a
   process runs one workload (the test runs it last). *)
let run cfg workload =
  Trace.reset ();
  Ops.reset_join_totals ();
  match workload with
  | "ingest_wal" -> ingest cfg
  | "query_xmark" -> read_workload cfg ~paged:false
  | "mixed_snapshot" -> mixed cfg
  | "paged_beyond_ram" -> read_workload cfg ~paged:true
  | w -> invalid_arg ("unknown workload: " ^ w)
