(* Running a workload and printing its result line. *)

(* GC settings of every run, recorded in BENCHMARK.json. *)
let gc_settings () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20; space_overhead = 120 }

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line (o : Workloads.outcome) =
  let metrics =
    List.map
      (fun (name, v, u) -> Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string name) v (json_string u))
      o.Workloads.metrics
  in
  Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" o.attempted
    o.failed (String.concat ", " metrics)

(* Runs [workload]; returns the exit code. *)
let main ~spans cfg workload =
  gc_settings ();
  match Workloads.run cfg workload with
  | o -> (
    List.iter print_endline o.Workloads.notes;
    Printf.printf "error_rate %g (%d of %d ops failed)\n"
      (float_of_int o.failed /. float_of_int (max 1 o.attempted))
      o.failed o.attempted;
    List.iter (fun (n, v, u) -> Printf.printf "%-36s %14.6g %s\n" n v u) o.metrics;
    if cfg.Workloads.trace then Trace.write spans;
    match List.find_opt (fun (_, v, _) -> not (Float.is_finite v)) o.metrics with
    | Some (n, _, _) ->
      Printf.eprintf "perfbench: metric %s is not finite\n" n;
      1
    | None ->
      print_endline (result_line o);
      0)
  | exception Workloads.Oracle msg ->
    Printf.eprintf "perfbench: %s: oracle mismatch: %s\n" workload msg;
    1
