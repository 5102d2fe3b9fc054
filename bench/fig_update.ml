(* Batched update ingestion: single-insert vs insert_many throughput.

   The workload is the paper's §5.1 setting pushed to where per-insert
   bookkeeping dominates: an XMark-like document chopped into ~1024
   small segments (Chopper Balanced), ingested into an empty database.
   Each unbatched insert pays its own sorted tag-list maintenance —
   O(segments) work per edit — while the batched path
   (Update_log.insert_batch) pays one tag-list merge per batch.  The sweep: engine LD/LS x batch size
   1/8/64/512 x WAL off/on; batch 1 uses Lazy_db.insert, larger sizes
   feed consecutive chunks to Lazy_db.insert_many.

   Beyond the console table, the run writes BENCH_update.json (or the
   --json path): the update-throughput entry of the perf trajectory,
   gated by scripts/bench_gate.sh.  See EXPERIMENTS.md for the
   schema. *)

open Lxu_workload
open Lazy_xml

(* Small document, many segments: ~200 bytes per segment keeps the
   per-element costs (parsing, element-index descent) minor next to
   the per-insert O(segments) bookkeeping — sorted tag-list
   maintenance — that batching amortizes. *)
let persons = 300 * Bench_util.scale
let target_segments = 1_024 * Bench_util.scale
let repeat = 3

let workload () =
  let text = Xmark.generate_text ~persons ~items:(persons * 3 / 5) ~seed:42 () in
  let edits = Chopper.chop ~text ~segments:target_segments Chopper.Balanced in
  (text, edits)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lazyxml_bench_update_%d_%d" (Unix.getpid ())
         (incr counter; !counter))

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* Consecutive chunks of [k] edits, preserving order. *)
let chunks k xs =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n = k then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

let engine_name = function
  | Lazy_db.LD -> "LD"
  | Lazy_db.LS -> "LS"
  | Lazy_db.STD -> "STD"

let build ~engine ~dir ~batch edits =
  let durability = match dir with Some d -> `Wal d | None -> `None in
  let db = Lazy_db.create ~engine ~durability () in
  (match batch with
  | 1 -> List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) edits
  | k -> List.iter (Lazy_db.insert_many db) (chunks k edits));
  db

let ingest_ms ~engine ~wal ~batch edits =
  let dir = if wal then Some (fresh_dir ()) else None in
  Fun.protect
    ~finally:(fun () -> Option.iter rm_rf dir)
    (fun () ->
      (* `Wal starts the directory fresh on every create, so samples
         don't accumulate log records across repeats. *)
      Bench_util.measure_min ~repeat (fun () ->
          let db = build ~engine ~dir ~batch edits in
          Lazy_db.close db))

let run () =
  Bench_util.header
    (Printf.sprintf "Batched ingestion: %d chopped segments, LD/LS, batch 1/8/64/512, +/-WAL"
       target_segments);
  let text, edits = workload () in
  let n = List.length edits in
  (* Correctness guard, outside the timing: every batched variant must
     land on the same document and the same query answer as the
     one-at-a-time baseline. *)
  let baseline =
    let db = build ~engine:Lazy_db.LD ~dir:None ~batch:1 edits in
    let c = Lazy_db.count db ~anc:"person" ~desc:"phone" () in
    (Lazy_db.doc_length db, Lazy_db.segment_count db, c)
  in
  let check_variant engine batch =
    let db = build ~engine ~dir:None ~batch edits in
    let got =
      ( Lazy_db.doc_length db,
        Lazy_db.segment_count db,
        Lazy_db.count db ~anc:"person" ~desc:"phone" () )
    in
    if got <> baseline then
      failwith
        (Printf.sprintf "fig_update: %s batch=%d diverged from baseline" (engine_name engine)
           batch)
  in
  Printf.printf "document: %d bytes, %d segments\n\n" (String.length text) n;
  let batches = [ 1; 8; 64; 512 ] in
  Bench_util.columns [ 8; 6; 8; 12; 14; 10 ]
    [ "engine"; "wal"; "batch"; "min ms"; "segs/sec"; "speedup" ];
  let rows =
    List.concat_map
      (fun engine ->
        List.concat_map
          (fun wal ->
            let base_ms = ref 0.0 in
            List.map
              (fun batch ->
                check_variant engine batch;
                let ms = ingest_ms ~engine ~wal ~batch edits in
                if batch = 1 then base_ms := ms;
                let segs_per_sec = if ms > 0.0 then float_of_int n /. (ms /. 1000.0) else 0.0 in
                let speedup = if ms > 0.0 then !base_ms /. ms else 0.0 in
                Bench_util.columns [ 8; 6; 8; 12; 14; 10 ]
                  [
                    engine_name engine;
                    (if wal then "on" else "off");
                    string_of_int batch;
                    Bench_util.fmt_ms ms;
                    Printf.sprintf "%.0f" segs_per_sec;
                    Printf.sprintf "%.2fx" speedup;
                  ];
                (engine, wal, batch, ms, segs_per_sec, speedup))
              batches)
          [ false; true ])
      [ Lazy_db.LD; Lazy_db.LS ]
  in
  let find engine wal batch =
    List.fold_left
      (fun acc (e, w, b, _, sps, _) -> if e = engine && w = wal && b = batch then sps else acc)
      0.0 rows
  in
  let ld_single = find Lazy_db.LD false 1 in
  let ld_batch64 = find Lazy_db.LD false 64 in
  let speedup64 = if ld_single > 0.0 then ld_batch64 /. ld_single else 0.0 in
  let note =
    if speedup64 >= 3.0 then
      Printf.sprintf "meets the >=3x-at-batch-64 target on LD (%.2fx)" speedup64
    else Printf.sprintf "below the 3x-at-batch-64 target on LD (%.2fx)" speedup64
  in
  Printf.printf "\n%s\n" note;
  let open Bench_util in
  let json =
    J_obj
      [
        ("bench", J_str "fig_update");
        ("schema_version", J_int 1);
        ( "workload",
          J_obj
            [
              ("generator", J_str "xmark+chopper");
              ("doc_bytes", J_int (String.length text));
              ("segments", J_int n);
              ("repeat", J_int repeat);
            ] );
        ("machine", J_obj [ ("ocaml", J_str Sys.ocaml_version) ]);
        ( "series",
          J_list
            (List.map
               (fun (engine, wal, batch, ms, sps, speedup) ->
                 J_obj
                   [
                     ("engine", J_str (engine_name engine));
                     ("wal", J_bool wal);
                     ("batch", J_int batch);
                     ("min_ms", J_float ms);
                     ("segs_per_sec", J_float sps);
                     ("speedup_vs_batch1", J_float speedup);
                   ])
               rows) );
        ("ld_batch64_segs_per_sec", J_float ld_batch64);
        ("speedup_batch64_ld", J_float speedup64);
        ("meets_3x_batch64_ld", J_bool (speedup64 >= 3.0));
        ("notes", J_str note);
      ]
  in
  write_json (json_out ~default:"BENCH_update.json") json
