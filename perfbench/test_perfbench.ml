(* A tiny-size pass of every workload, untraced and traced: every
   metric BENCHMARK.json names is emitted with its unit and a finite
   value, every oracle passes, and every traced decomposition matches
   its end-to-end result (a mismatch raises [Workloads.Oracle]). *)

open Perfbench

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The metric names of one BENCHMARK.json section, in order. *)
let section spec key =
  let i =
    let k = Printf.sprintf "\"%s\"" key in
    let rec find j = if String.sub spec j (String.length k) = k then j else find (j + 1) in
    find 0
  in
  let stop = String.index_from spec i ']' in
  let body = String.sub spec i (stop - i) in
  String.split_on_char '\n' body
  |> List.filter_map (fun line ->
         match String.split_on_char '"' line with
         | _ :: "name" :: _ :: name :: _ :: "unit" :: _ :: unit_ :: _ -> Some (name, unit_)
         | _ -> None)

let () =
  let spec = read_file "../BENCHMARK.json" in
  let e2e = section spec "end_to_end" and layers = section spec "per_layer" in
  assert (e2e <> [] && layers <> []);
  let tmp = "perfbench-test-tmp" in
  let failures = ref 0 and checked = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          Workloads.rm_rf tmp;
          Report.mkdir_p tmp;
          let cfg = { Workloads.size = Inputs.Tiny; seed = 7; seconds = 0.01; trace; tmp } in
          let expected = if trace then layers else e2e in
          (match Workloads.run cfg w with
          | o ->
            let got = List.map (fun (n, _, u) -> (n, u)) o.Workloads.metrics in
            if got <> expected then begin
              incr failures;
              Printf.printf "FAIL %s trace=%b: metric names or units differ from BENCHMARK.json\n" w trace
            end;
            checked := !checked + List.length o.metrics;
            List.iter
              (fun (n, v, _) ->
                if not (Float.is_finite v) then begin
                  incr failures;
                  Printf.printf "FAIL %s trace=%b: %s is not finite\n" w trace n
                end)
              o.metrics;
            if o.attempted < 1 || o.failed <> 0 then begin
              incr failures;
              Printf.printf "FAIL %s trace=%b: %d attempted, %d failed\n" w trace o.attempted o.failed
            end;
            let line = Report.result_line o in
            if not (contains line "\"correct\": true") then incr failures
          | exception Workloads.Oracle msg ->
            incr failures;
            Printf.printf "FAIL %s trace=%b: oracle: %s\n" w trace msg);
          Workloads.rm_rf tmp)
        [ false; true ])
    Workloads.names;
  Printf.printf "perfbench: %d workload runs, %d metrics checked, %d failures\n"
    (2 * List.length Workloads.names) !checked !failures;
  if !failures > 0 then exit 1
