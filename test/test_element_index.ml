(* Tests for the element index: key ordering, per-segment scans,
   deletion bookkeeping — over an in-memory page store with small
   pages, so a few hundred keys already build a multi-level tree. *)

open Lxu_seglog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let key ~tid ~sid ~start ~stop ~level = { Element_index.tid; sid; start; stop; level }

let fresh () =
  Element_index.create
    (Lxu_storage.Page_store.create ~device:(Lxu_storage.Sim_file.in_memory ()) ~page_size:512 ())
    ~attach:false

let sample () =
  let idx = fresh () in
  List.iter (Element_index.add idx)
    [
      key ~tid:1 ~sid:1 ~start:0 ~stop:20 ~level:0;
      key ~tid:1 ~sid:1 ~start:3 ~stop:9 ~level:1;
      key ~tid:1 ~sid:2 ~start:0 ~stop:4 ~level:2;
      key ~tid:2 ~sid:1 ~start:10 ~stop:18 ~level:1;
      key ~tid:2 ~sid:3 ~start:0 ~stop:8 ~level:0;
    ];
  idx

let test_size () =
  let idx = sample () in
  check_int "size" 5 (Element_index.size idx);
  check_bool "height" true (Element_index.height idx >= 1);
  check_bool "bytes" true (Element_index.size_bytes idx > 0)

let test_segment_scan_order () =
  let idx = sample () in
  let starts = ref [] in
  Element_index.iter_segment idx ~tid:1 ~sid:1 (fun k ->
      starts := k.Element_index.start :: !starts;
      true);
  Alcotest.(check (list int)) "local order" [ 0; 3 ] (List.rev !starts)

let test_segment_scan_isolation () =
  let idx = sample () in
  (* tid 1 / sid 2 must not leak records of sid 1 or tid 2. *)
  let got = Element_index.elements_of_segment idx ~tid:1 ~sid:2 in
  check_int "one record" 1 (Array.length got);
  check_int "right one" 2 got.(0).Element_index.sid;
  check_int "empty pair" 0 (Array.length (Element_index.elements_of_segment idx ~tid:2 ~sid:2))

let test_early_stop () =
  let idx = sample () in
  let n = ref 0 in
  Element_index.iter_segment idx ~tid:1 ~sid:1 (fun _ ->
      incr n;
      false);
  check_int "stopped after one" 1 !n

let test_remove () =
  let idx = sample () in
  check_bool "removed" true
    (Element_index.remove idx (key ~tid:1 ~sid:1 ~start:3 ~stop:9 ~level:1));
  check_bool "gone" false
    (Element_index.remove idx (key ~tid:1 ~sid:1 ~start:3 ~stop:9 ~level:1));
  check_int "size" 4 (Element_index.size idx)

let test_cols_of_segment () =
  let idx = sample () in
  let c = Element_index.cols_of_segment idx ~tid:1 ~sid:1 in
  check_int "len" 2 (Seg_cache.cols_length c);
  Alcotest.(check (list int)) "starts" [ 0; 3 ] (Array.to_list c.Seg_cache.starts);
  Alcotest.(check (list int)) "stops" [ 20; 9 ] (Array.to_list c.Seg_cache.stops);
  Alcotest.(check (list int)) "levels" [ 0; 1 ] (Array.to_list c.Seg_cache.levels);
  check_int "empty cols" 0
    (Seg_cache.cols_length (Element_index.cols_of_segment idx ~tid:2 ~sid:2))

let test_iter_all () =
  let idx = sample () in
  let n = ref 0 in
  Element_index.iter_all idx (fun _ -> incr n);
  check_int "all" 5 !n

let test_many_records () =
  let idx = fresh () in
  for sid = 1 to 20 do
    for i = 0 to 49 do
      Element_index.add idx (key ~tid:(i mod 3) ~sid ~start:(i * 10) ~stop:((i * 10) + 5) ~level:0)
    done
  done;
  check_int "size" 1000 (Element_index.size idx);
  let per_seg = Element_index.elements_of_segment idx ~tid:1 ~sid:7 in
  check_int "scan count" 17 (Array.length per_seg);
  let sorted = Array.to_list (Array.map (fun k -> k.Element_index.start) per_seg) in
  check_bool "sorted" true (sorted = List.sort compare sorted)

let suite =
  [
    Alcotest.test_case "size and stats" `Quick test_size;
    Alcotest.test_case "segment scan order" `Quick test_segment_scan_order;
    Alcotest.test_case "segment scan isolation" `Quick test_segment_scan_isolation;
    Alcotest.test_case "early stop" `Quick test_early_stop;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "cols_of_segment" `Quick test_cols_of_segment;
    Alcotest.test_case "iter_all" `Quick test_iter_all;
    Alcotest.test_case "many records" `Quick test_many_records;
  ]
