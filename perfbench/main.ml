(* The benchmark's command line:

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size tiny]

   Runs one workload and prints a report, then as the last line of
   standard output one JSON object: [correct], [attempted], [failed]
   and [metrics] — the end-to-end metrics with [--trace 0], the
   per-layer metrics with [--trace 1].  An oracle mismatch prints the
   reason on standard error and exits 1 without a result.  Scratch
   files live under .bench_build/ in the working directory and are
   removed on exit; a traced run leaves its spans there. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload <ingest_wal|query_xmark|mixed_snapshot|paged_beyond_ram> \
     --seed <n> --seconds <s> --trace <0|1> [--size tiny]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let size = ref Perfbench.Inputs.Full in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := Some w;
      parse rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      parse rest
    | "--seconds" :: s :: rest ->
      seconds := float_of_string_opt s;
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := Some (t = "1");
      parse rest
    | "--size" :: "tiny" :: rest ->
      size := Perfbench.Inputs.Tiny;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when List.mem w Perfbench.Workloads.names && seconds > 0.0 ->
    let out = ".bench_build" in
    let tmp = Filename.concat out (Printf.sprintf "perfbench-tmp-%d" (Unix.getpid ())) in
    Perfbench.Report.mkdir_p tmp;
    let spans = Filename.concat out (Printf.sprintf "perfbench-spans-%s-%d.tsv" w seed) in
    let cfg = { Perfbench.Workloads.size = !size; seed; seconds; trace; tmp } in
    exit
      (Fun.protect
         ~finally:(fun () -> Perfbench.Workloads.rm_rf tmp)
         (fun () -> Perfbench.Report.main ~spans cfg w))
  | _ -> usage ()
