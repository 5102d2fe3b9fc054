(* Unit and property tests for the page-backed B+-tree (the element
   index's tree).  Small pages give small fan-outs, so a few hundred
   keys already build multi-level trees: splits, separators and the
   lazy-deletion paths all fire. *)

open Lxu_btree
module Page_store = Lxu_storage.Page_store
module Sim_file = Lxu_storage.Sim_file
module IMap = Map.Make (Int)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A 128-byte page holds 15 words: 6 one-word key/value pairs per leaf
   and 7 children per branch. *)
let tree ?(page_size = 128) ?(kw = 1) () =
  let ps = Page_store.create ~device:(Sim_file.in_memory ()) ~page_size () in
  Paged_bptree.create ps ~slot:"t" ~kw ~vw:1

(* Int-keyed views over the one-word key/value tree. *)
let insert t k v = Paged_bptree.insert t [| k |] [| v |]
let remove t k = Paged_bptree.remove t [| k |]

let find t k =
  let v = [| 0 |] in
  if Paged_bptree.find t [| k |] ~value:v then Some v.(0) else None

let scan_from t lo =
  let acc = ref [] in
  Paged_bptree.iter_from t [| lo |] (fun kb vb ->
      acc := (kb.(0), vb.(0)) :: !acc;
      true);
  List.rev !acc

let to_list t = scan_from t min_int

let build pairs =
  let t = tree () in
  List.iter (fun (k, v) -> insert t k v) pairs;
  t

let stream pairs i kb vb =
  let k, v = pairs.(i) in
  kb.(0) <- k;
  vb.(0) <- v

let load_sorted t pairs =
  Paged_bptree.load_sorted t ~n:(Array.length pairs) ~get:(stream pairs)

let insert_sorted_batch t pairs =
  Paged_bptree.insert_sorted_batch t ~n:(Array.length pairs) ~get:(stream pairs)

let test_empty () =
  let t = tree () in
  check_int "length" 0 (Paged_bptree.length t);
  check_bool "find" true (find t 5 = None);
  check_bool "scan" true (to_list t = []);
  check_int "height" 0 (Paged_bptree.height t);
  Paged_bptree.check_invariants t

let test_insert_find () =
  let t = build (List.init 100 (fun i -> (i * 7 mod 100, i))) in
  check_int "length" 100 (Paged_bptree.length t);
  check_bool "find 0" true (find t 0 <> None);
  check_bool "find 99" true (find t 99 <> None);
  check_bool "find missing" true (find t 100 = None);
  Paged_bptree.check_invariants t

let test_replace () =
  let t = build [ (1, 10) ] in
  insert t 1 20;
  check_int "length" 1 (Paged_bptree.length t);
  check_bool "value" true (find t 1 = Some 20)

let test_ordered_iteration () =
  let t = build (List.init 500 (fun i -> ((i * 37) mod 500, i))) in
  let keys = List.map fst (to_list t) in
  Alcotest.(check (list int)) "sorted" (List.init 500 Fun.id) keys

let test_iter_from () =
  let t = build (List.init 100 (fun i -> (i * 2, i))) in
  (* Keys are 0,2,...,198; scanning from 51 yields 52,54,... *)
  let seen = ref [] in
  Paged_bptree.iter_from t [| 51 |] (fun kb _ ->
      seen := kb.(0) :: !seen;
      List.length !seen < 3);
  Alcotest.(check (list int)) "window" [ 52; 54; 56 ] (List.rev !seen)

let test_iter_from_past_end () =
  let t = build (List.init 10 (fun i -> (i, i))) in
  check_int "nothing" 0 (List.length (scan_from t 100))

let test_remove_simple () =
  let t = build (List.init 50 (fun i -> (i, i))) in
  check_bool "present" true (remove t 25);
  check_bool "absent now" true (find t 25 = None);
  check_bool "remove again" false (remove t 25);
  check_int "length" 49 (Paged_bptree.length t);
  Paged_bptree.check_invariants t

let remove_all order =
  let n = 300 in
  let t = build (List.init n (fun i -> (i, i))) in
  List.iter
    (fun i ->
      check_bool "removed" true (remove t i);
      Paged_bptree.check_invariants t)
    (order n);
  check_int "empty" 0 (Paged_bptree.length t);
  check_bool "no entries left" true (to_list t = [])

let test_remove_all_ascending () = remove_all (fun n -> List.init n Fun.id)
let test_remove_all_descending () = remove_all (fun n -> List.init n (fun i -> n - 1 - i))

let test_height_grows_logarithmically () =
  let t = build (List.init 4000 (fun i -> (i, i))) in
  (* Leaves hold 3-6 keys and branches 2-7 children after splits, so
     4000 keys need well over 2 levels and at most log2 4000 + 1. *)
  check_bool "height sane" true (Paged_bptree.height t >= 3 && Paged_bptree.height t <= 13);
  let leaves, branches = Paged_bptree.node_counts t in
  check_bool "has branches" true (branches > 0);
  check_bool "leaves bound" true (leaves >= 4000 / 6)

let test_page_too_small_rejected () =
  (* A 128-byte page cannot hold two 8-word keys with their values. *)
  match tree ~kw:8 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an 8-word key fits no 128-byte leaf twice"

let test_tuple_keys () =
  (* The element index uses 5-word keys; verify lexicographic order
     and the prefix scan it relies on, with 3-word keys. *)
  let t = tree ~page_size:256 ~kw:3 () in
  List.iter
    (fun (a, b, c) -> Paged_bptree.insert t [| a; b; c |] [| 0 |])
    [ (1, 2, 3); (0, 9, 9); (1, 0, 0); (1, 2, 2); (2, 0, 0) ];
  let keys = ref [] in
  Paged_bptree.iter t (fun kb _ ->
      keys := (kb.(0), kb.(1), kb.(2)) :: !keys;
      true);
  check_bool "lexicographic" true
    (List.rev !keys = [ (0, 9, 9); (1, 0, 0); (1, 2, 2); (1, 2, 3); (2, 0, 0) ]);
  (* Prefix scan: all keys with first component 1. *)
  let seen = ref 0 in
  Paged_bptree.iter_from t [| 1; min_int; min_int |] (fun kb _ ->
      if kb.(0) = 1 then begin
        incr seen;
        true
      end
      else false);
  check_int "prefix count" 3 !seen;
  Paged_bptree.check_invariants t

(* --- bulk construction --------------------------------------------- *)

let sorted_pairs n = Array.init n (fun i -> (i * 3, i))

let test_load_sorted_sizes () =
  (* Sweep sizes around the leaf and group boundaries for several page
     sizes: every tree must satisfy the full invariant check and
     reproduce the input exactly. *)
  List.iter
    (fun page_size ->
      List.iter
        (fun n ->
          let pairs = sorted_pairs n in
          let t = tree ~page_size () in
          load_sorted t pairs;
          Paged_bptree.check_invariants t;
          check_int (Printf.sprintf "length page=%d n=%d" page_size n) n (Paged_bptree.length t);
          check_bool "contents" true (to_list t = Array.to_list pairs);
          Array.iter (fun (k, v) -> check_bool "find" true (find t k = Some v)) pairs;
          check_bool "absent key" true (find t (-1) = None))
        [ 0; 1; 5; 6; 7; 42; 43; 1000 ])
    [ 128; 256; 1024 ]

let test_load_sorted_matches_incremental () =
  (* Bulk load and one-at-a-time insertion agree on every observable. *)
  let pairs = Array.init 777 (fun i -> (i * 2, i)) in
  let bulk = tree () in
  load_sorted bulk pairs;
  let incr = build (Array.to_list pairs) in
  check_bool "same contents" true (to_list bulk = to_list incr);
  check_int "same length" (Paged_bptree.length incr) (Paged_bptree.length bulk);
  (* Packed leaves: the bulk tree never needs more leaves than the
     split-built one. *)
  check_bool "packed" true
    (fst (Paged_bptree.node_counts bulk) <= fst (Paged_bptree.node_counts incr))

let test_load_sorted_rejects_unsorted () =
  let raises pairs =
    match load_sorted (tree ()) pairs with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  check_bool "descending" true (raises [| (2, 0); (1, 0) |]);
  check_bool "duplicate" true (raises [| (1, 0); (1, 0) |])

let test_load_sorted () =
  let t = tree () in
  load_sorted t (sorted_pairs 100);
  Paged_bptree.check_invariants t;
  check_int "loaded" 100 (Paged_bptree.length t);
  (* Loading into a non-empty tree replaces its contents. *)
  load_sorted t [| (1, 1); (2, 4); (3, 9) |];
  Paged_bptree.check_invariants t;
  check_bool "replaced" true (to_list t = [ (1, 1); (2, 4); (3, 9) ])

let test_insert_sorted_batch_basic () =
  (* Interleave: evens pre-existing, odds batched in. *)
  let t = build (List.init 50 (fun i -> (i * 2, -i))) in
  insert_sorted_batch t (Array.init 50 (fun i -> ((i * 2) + 1, i)));
  Paged_bptree.check_invariants t;
  check_int "merged length" 100 (Paged_bptree.length t);
  check_bool "sorted" true (List.map fst (to_list t) = List.init 100 Fun.id)

let test_insert_sorted_batch_replaces () =
  let t = build [ (1, 0); (5, 55); (9, 0) ] in
  insert_sorted_batch t [| (1, 11); (7, 77); (9, 99) |];
  Paged_bptree.check_invariants t;
  check_int "no duplicates" 4 (Paged_bptree.length t);
  check_bool "replaced 1" true (find t 1 = Some 11);
  check_bool "kept 5" true (find t 5 = Some 55);
  check_bool "replaced 9" true (find t 9 = Some 99)

let test_insert_sorted_batch_edges () =
  let t = tree () in
  insert_sorted_batch t [||];
  check_int "empty batch, empty tree" 0 (Paged_bptree.length t);
  insert_sorted_batch t [| (42, 4) |];
  Paged_bptree.check_invariants t;
  check_bool "singleton into empty" true (to_list t = [ (42, 4) ]);
  insert_sorted_batch t [||];
  check_int "empty batch is a no-op" 1 (Paged_bptree.length t);
  check_bool "duplicate keys within the batch" true
    (match insert_sorted_batch t [| (1, 1); (1, 2) |] with
     | exception Invalid_argument _ -> true
     | () -> false);
  check_bool "rejected batch leaves the tree" true (to_list t = [ (42, 4) ])

(* --- properties ---------------------------------------------------- *)

type op = Insert of int * int | Remove of int

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun k v -> Insert (k mod 200, v)) (int_bound 1000) (int_bound 1000);
        map (fun k -> Remove (k mod 200)) (int_bound 1000);
      ])

let ops_gen = QCheck2.Gen.(list_size (int_range 0 400) op_gen)

let apply_ops page_size ops =
  let t = tree ~page_size () in
  let reference = ref IMap.empty in
  List.iter
    (fun op ->
      match op with
      | Insert (k, v) ->
        insert t k v;
        reference := IMap.add k v !reference
      | Remove k ->
        let removed = remove t k in
        let was_there = IMap.mem k !reference in
        if removed <> was_there then failwith "remove result disagrees with Map";
        reference := IMap.remove k !reference)
    ops;
  (t, !reference)

(* Branch fan-out of one-word keys: 128-, 256- and 1024-byte pages. *)
let page_of_branching = [ (7, 128); (15, 256); (63, 1024) ]

let prop_matches_map (branching, page_size) =
  QCheck2.Test.make
    ~name:(Printf.sprintf "btree = Map under random ops (branching %d)" branching)
    ~count:300 ops_gen (fun ops ->
      let t, reference = apply_ops page_size ops in
      Paged_bptree.check_invariants t;
      to_list t = IMap.bindings reference)

let prop_iter_from_matches_map =
  QCheck2.Test.make ~name:"iter_from = Map slice" ~count:300
    QCheck2.Gen.(pair ops_gen (int_bound 220))
    (fun (ops, lo) ->
      let t, reference = apply_ops 128 ops in
      scan_from t lo = IMap.bindings (IMap.filter (fun k _ -> k >= lo) reference))

(* Both sides of the per-key/rebuild crossover against Map. *)
let prop_insert_sorted_batch_matches_map =
  let gen =
    QCheck2.Gen.(
      triple ops_gen
        (list_size (int_range 0 300) (pair (int_bound 400) (int_bound 1000)))
        (oneofl [ 128; 256; 1024 ]))
  in
  QCheck2.Test.make ~name:"insert_sorted_batch = Map adds" ~count:300 gen
    (fun (ops, batch, page_size) ->
      let t, reference = apply_ops page_size ops in
      (* Dedup and sort the batch the way callers must. *)
      let batch =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) batch |> Array.of_list
      in
      insert_sorted_batch t batch;
      Paged_bptree.check_invariants t;
      let expected =
        Array.fold_left (fun m (k, v) -> IMap.add k v m) reference batch
      in
      to_list t = IMap.bindings expected)

let prop_load_sorted_matches_map =
  QCheck2.Test.make ~name:"load_sorted = Map of_list" ~count:300
    QCheck2.Gen.(
      pair (list_size (int_range 0 600) (pair int (int_bound 1000))) (oneofl [ 128; 256; 1024 ]))
    (fun (pairs, page_size) ->
      let pairs =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) pairs |> Array.of_list
      in
      let t = tree ~page_size () in
      load_sorted t pairs;
      Paged_bptree.check_invariants t;
      to_list t = Array.to_list pairs)

let props =
  List.map QCheck_alcotest.to_alcotest
    (List.map prop_matches_map page_of_branching
    @ [
        prop_iter_from_matches_map;
        prop_insert_sorted_batch_matches_map;
        prop_load_sorted_matches_map;
      ])

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "insert/find" `Quick test_insert_find;
    Alcotest.test_case "replace" `Quick test_replace;
    Alcotest.test_case "ordered iteration" `Quick test_ordered_iteration;
    Alcotest.test_case "iter_from window" `Quick test_iter_from;
    Alcotest.test_case "iter_from past end" `Quick test_iter_from_past_end;
    Alcotest.test_case "remove simple" `Quick test_remove_simple;
    Alcotest.test_case "remove all ascending" `Quick test_remove_all_ascending;
    Alcotest.test_case "remove all descending" `Quick test_remove_all_descending;
    Alcotest.test_case "height logarithmic" `Quick test_height_grows_logarithmically;
    Alcotest.test_case "page too small rejected" `Quick test_page_too_small_rejected;
    Alcotest.test_case "tuple keys + prefix scan" `Quick test_tuple_keys;
    Alcotest.test_case "load_sorted size sweep" `Quick test_load_sorted_sizes;
    Alcotest.test_case "load_sorted = incremental" `Quick test_load_sorted_matches_incremental;
    Alcotest.test_case "load_sorted rejects unsorted" `Quick test_load_sorted_rejects_unsorted;
    Alcotest.test_case "load_sorted" `Quick test_load_sorted;
    Alcotest.test_case "insert_sorted_batch interleave" `Quick test_insert_sorted_batch_basic;
    Alcotest.test_case "insert_sorted_batch replaces" `Quick test_insert_sorted_batch_replaces;
    Alcotest.test_case "insert_sorted_batch edges" `Quick test_insert_sorted_batch_edges;
  ]
  @ props
