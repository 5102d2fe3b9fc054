(* Shared helpers for the figure-reproduction harness. *)

(* Workload multiplier from LAZYXML_BENCH_SCALE (default 1): the key
   dataset sizes of figs 12-16 scale linearly with it, for runs closer
   to the paper's 100 MB datasets. *)
let scale =
  match Sys.getenv_opt "LAZYXML_BENCH_SCALE" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> 1

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

(* Median wall-clock of [repeat] runs, in milliseconds. *)
let measure ?(repeat = 5) f =
  let samples =
    List.init repeat (fun _ ->
        let _, ms = time_ms f in
        ms)
    |> List.sort compare
  in
  List.nth samples (repeat / 2)

(* Best-of-[repeat]: on a shared single-core host, scheduler
   preemption can land in most samples of a window, dragging medians
   around by multiples of the true cost; the minimum is the
   reproducible compute time and treats every variant identically.
   Use for figures whose verdict is a ratio of short passes. *)
let measure_min ?(repeat = 5) f =
  List.fold_left
    (fun acc _ ->
      let _, ms = time_ms f in
      min acc ms)
    infinity
    (List.init repeat Fun.id)

let header title =
  Printf.printf "\n=== %s ===\n" title

(* --- machine-readable output ---------------------------------------- *)

(* Figures that emit machine-readable results (the BENCH_*.json perf
   trajectory) write to the path given with [--json <path>] on the
   main.exe command line, or to their own default filename.  The flag
   is parsed by bench/main.ml and shared by every figure. *)
let json_path : string option ref = ref None

let json_out ~default = match !json_path with Some p -> p | None -> default

(* Minimal JSON construction — enough for flat benchmark records, no
   external dependency. *)
type json =
  | J_null
  | J_bool of bool
  | J_int of int
  | J_float of float
  | J_str of string
  | J_list of json list
  | J_obj of (string * json) list

let rec render_json buf = function
  | J_null -> Buffer.add_string buf "null"
  | J_bool b -> Buffer.add_string buf (string_of_bool b)
  | J_int i -> Buffer.add_string buf (string_of_int i)
  | J_float f ->
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
    else Buffer.add_string buf "null"
  | J_str s ->
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | J_list l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        render_json buf x)
      l;
    Buffer.add_char buf ']'
  | J_obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        render_json buf (J_str k);
        Buffer.add_char buf ':';
        render_json buf v)
      fields;
    Buffer.add_char buf '}'

let write_json path json =
  let buf = Buffer.create 1024 in
  render_json buf json;
  Buffer.add_char buf '\n';
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (Buffer.contents buf));
  Printf.printf "wrote %s\n" path

let columns widths cells =
  List.iter2 (fun w c -> Printf.printf "%-*s" w c) widths cells;
  print_newline ()

let fmt_ms ms = Printf.sprintf "%.3f" ms
let fmt_bytes b = Printf.sprintf "%d" b

let sep () = print_newline ()

(* Builds a Lazy_db from an edit schedule. *)
let load_db engine edits =
  let db = Lazy_xml.Lazy_db.create ~engine () in
  List.iter (fun (gp, frag) -> Lazy_xml.Lazy_db.insert db ~gp frag) edits;
  db

(* Builds an update log (LD or LS) from an edit schedule.
   [cache_bytes] sets the read-side segment-cache budget ([0]
   disables it). *)
let load_log ?cache_bytes mode edits =
  let log = Lxu_seglog.Update_log.create ~mode ?cache_bytes () in
  List.iter (fun (gp, frag) -> ignore (Lxu_seglog.Update_log.insert log ~gp frag)) edits;
  log

(* Builds the traditional interval store from an edit schedule. *)
let load_store edits =
  let store = Lxu_labeling.Interval_store.create () in
  List.iter (fun (gp, frag) -> Lxu_labeling.Interval_store.insert store ~gp frag) edits;
  store

(* The three query timers used across figures; all measure the join
   itself, on label pairs, the way the paper does.  The LS timer
   includes the pre-query tag-list sort that discipline defers. *)
let time_ld log ~anc ~desc =
  Lxu_seglog.Update_log.prepare_for_query log;
  measure (fun () -> ignore (Lxu_join.Lazy_join.run log ~anc ~desc ()))

let time_ls log ~anc ~desc =
  measure (fun () ->
      Lxu_seglog.Update_log.mark_stale log;
      ignore (Lxu_join.Lazy_join.run log ~anc ~desc ()))

(* STD as the paper runs it over the same store (§4): fetch every
   element of both tags from the element index, translate local labels
   to global intervals through the SB-tree, sort, then Stack-Tree-Desc.
   Reading and translating the full lists is part of the measured cost,
   exactly as reading the full element lists is for the paper's STD. *)
let time_std log ~anc ~desc =
  Lxu_seglog.Update_log.prepare_for_query log;
  measure (fun () -> ignore (Lxu_join.Std_baseline.run log ~anc ~desc ()))
