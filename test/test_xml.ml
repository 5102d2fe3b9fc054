(* Unit and property tests for the offset-tracking XML parser and
   serializer. *)

open Lxu_xml

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let parse = Parser.parse_fragment

let root_element s =
  match parse s with
  | [ Tree.Element e ] -> e
  | _ -> Alcotest.fail "expected a single root element"

let test_single_element () =
  let e = root_element "<a/>" in
  check_string "tag" "a" e.Tree.tag;
  check_int "start" 0 e.Tree.e_start;
  check_int "end" 4 e.Tree.e_end

let test_nested_offsets () =
  (*        0123456789012345678 *)
  let s = "<a><b>hi</b><c/></a>" in
  let a = root_element s in
  check_int "a start" 0 a.Tree.e_start;
  check_int "a end" (String.length s) a.Tree.e_end;
  match a.Tree.children with
  | [ Tree.Element b; Tree.Element c ] ->
    check_int "b start" 3 b.Tree.e_start;
    check_int "b end" 12 b.Tree.e_end;
    check_int "c start" 12 c.Tree.e_start;
    check_int "c end" 16 c.Tree.e_end
  | _ -> Alcotest.fail "expected children b, c"

let test_text_decoding () =
  let a = root_element "<a>x &amp; y &lt;z&gt; &#65;</a>" in
  match a.Tree.children with
  | [ Tree.Text t ] -> check_string "decoded" "x & y <z> A" t.Tree.content
  | _ -> Alcotest.fail "expected one text child"

let test_attributes () =
  let a = root_element "<a x=\"1\" y='two' z=\"a&amp;b\"/>" in
  let attr n =
    (List.find (fun at -> at.Tree.attr_name = n) a.Tree.attrs).Tree.attr_value
  in
  check_string "x" "1" (attr "x");
  check_string "y" "two" (attr "y");
  check_string "z" "a&b" (attr "z")

let test_comment_pi_cdata () =
  let nodes = parse "<!--note--><?pi target?><a><![CDATA[<raw>&]]></a>" in
  match nodes with
  | [ Tree.Comment c; Tree.Pi p; Tree.Element a ] -> begin
    check_string "comment" "note" c.Tree.content;
    check_string "pi" "pi target" p.Tree.content;
    match a.Tree.children with
    | [ Tree.Cdata d ] -> check_string "cdata" "<raw>&" d.Tree.content
    | _ -> Alcotest.fail "expected cdata child"
  end
  | _ -> Alcotest.fail "expected comment, pi, element"

let test_fragment_with_multiple_roots () =
  let nodes = parse "<a/><b/><c/>" in
  check_int "three roots" 3 (List.length nodes)

let expect_error s =
  match Parser.parse_fragment_result s with
  | Ok _ -> Alcotest.fail (Printf.sprintf "expected parse error for %S" s)
  | Error _ -> ()

let test_malformed () =
  expect_error "<a>";
  expect_error "<a></b>";
  expect_error "</a>";
  expect_error "<a attr></a>";
  expect_error "<a x=1/>";
  expect_error "<a>&unknown;</a>";
  expect_error "<a>&amp</a>";
  expect_error "<!DOCTYPE foo><a/>";
  expect_error "<a><!--unterminated</a>";
  expect_error "<a x=\"<\"/>"

let test_parse_document () =
  let e = Parser.parse_document "  <!--hd--> <root><x/></root>\n" in
  check_string "root tag" "root" e.Tree.tag;
  Alcotest.check_raises "two roots"
    (Parser.Parse_error { pos = 0; msg = "multiple root elements" })
    (fun () -> ignore (Parser.parse_document "<a/><b/>"));
  Alcotest.check_raises "stray text"
    (Parser.Parse_error { pos = 0; msg = "stray character data outside the root element" })
    (fun () -> ignore (Parser.parse_document "hi<a/>"))

let test_iter_elements_levels () =
  let nodes = parse "<a><b><c/></b><d/></a>" in
  let seen = ref [] in
  Tree.iter_elements ~base_level:3 nodes (fun e ~level ->
      seen := (e.Tree.tag, level) :: !seen);
  Alcotest.(check (list (pair string int)))
    "pre-order with levels"
    [ ("a", 3); ("b", 4); ("c", 5); ("d", 4) ]
    (List.rev !seen)

let test_stats () =
  let nodes = parse "<a><b/><b/><c><b/></c></a>" in
  check_int "count" 5 (Tree.element_count nodes);
  Alcotest.(check (list string)) "tags" [ "a"; "b"; "c" ] (Tree.distinct_tags nodes);
  check_int "depth" 3 (Tree.max_depth nodes);
  check_int "find_all b" 3 (List.length (Tree.find_all nodes ~tag:"b"))

let test_render_roundtrip () =
  let t =
    Tree.el "person"
      ~attrs:[ ("id", "p&1") ]
      [
        Tree.el "name" [ Tree.txt "A <B>" ];
        Tree.comment "note";
        Tree.el "empty" [];
      ]
  in
  let s = Printer.render [ t ] in
  let reparsed = parse s in
  check_bool "structurally equal" true (Tree.equal_structure [ t ] reparsed)

let test_render_escaping () =
  check_string "text" "a&amp;b&lt;c&gt;" (Printer.escape_text "a&b<c>");
  check_string "attr" "&quot;x&quot;" (Printer.escape_attr "\"x\"")

let test_render_indented_reparses () =
  let nodes = parse "<a><b><c/><c/></b>text</a>" in
  let pretty = Printer.render_indented nodes in
  check_bool "well-formed" true (Parser.is_well_formed_fragment pretty)

let test_offsets_slice_back () =
  (* Every element's offsets must slice the input to a reparsable
     fragment equal to that element. *)
  let s = "<a att=\"v\"><b>t&amp;t</b><c><d/></c></a>" in
  let nodes = parse s in
  Tree.iter_elements nodes (fun e ~level:_ ->
      let slice = String.sub s e.Tree.e_start (e.Tree.e_end - e.Tree.e_start) in
      match parse slice with
      | [ Tree.Element e' ] -> check_string "same tag" e.Tree.tag e'.Tree.tag
      | _ -> Alcotest.fail "slice did not reparse to the element")

(* --- property: random tree -> render -> parse -> equal ------------- *)

let tag_gen = QCheck2.Gen.(map (fun i -> Printf.sprintf "t%d" (i mod 7)) (int_bound 100))

let text_gen =
  QCheck2.Gen.(
    map
      (fun s ->
        (* Arbitrary printable strings incl. the characters needing escapes. *)
        String.concat "" (List.map (fun c -> String.make 1 c) s))
      (* Non-empty: an element whose only child is an empty text node
         renders as <t></t> but reparses childless, i.e. as <t/>. *)
      (list_size (int_range 1 8)
         (oneofl [ 'a'; 'b'; ' '; '&'; '<'; '>'; '"'; '\''; '\n' ])))

let rec node_gen depth =
  let open QCheck2.Gen in
  if depth = 0 then map Tree.txt text_gen
  else
    frequency
      [
        (2, map Tree.txt text_gen);
        ( 3,
          map3
            (fun tag attrs children -> Tree.el tag ~attrs children)
            tag_gen
            (list_size (int_range 0 2) (pair (map (fun t -> "a" ^ t) tag_gen) text_gen))
            (list_size (int_range 0 3) (node_gen (depth - 1))) );
      ]

let forest_gen = QCheck2.Gen.(list_size (int_range 0 4) (node_gen 3))

let prop_render_parse_roundtrip =
  QCheck2.Test.make ~name:"render/parse roundtrip" ~count:300 forest_gen
    (fun forest ->
      let s = Printer.render forest in
      match Parser.parse_fragment_result s with
      | Error _ -> false
      | Ok reparsed ->
        (* Rendering merges nothing, but adjacent generated text nodes
           merge on reparse; compare via a second render. *)
        Printer.render reparsed = s)

let prop_offsets_within_bounds =
  QCheck2.Test.make ~name:"parsed offsets are sane" ~count:300 forest_gen
    (fun forest ->
      let s = Printer.render forest in
      match Parser.parse_fragment_result s with
      | Error _ -> false
      | Ok reparsed ->
        let ok = ref true in
        Tree.iter_elements reparsed (fun e ~level:_ ->
            if not (0 <= e.Tree.e_start && e.Tree.e_start < e.Tree.e_end && e.Tree.e_end <= String.length s)
            then ok := false;
            if s.[e.Tree.e_start] <> '<' then ok := false;
            if s.[e.Tree.e_end - 1] <> '>' then ok := false);
        !ok)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_render_parse_roundtrip; prop_offsets_within_bounds ]

let suite =
  [
    Alcotest.test_case "single element offsets" `Quick test_single_element;
    Alcotest.test_case "nested offsets" `Quick test_nested_offsets;
    Alcotest.test_case "text decoding" `Quick test_text_decoding;
    Alcotest.test_case "attributes" `Quick test_attributes;
    Alcotest.test_case "comment/pi/cdata" `Quick test_comment_pi_cdata;
    Alcotest.test_case "fragment with multiple roots" `Quick test_fragment_with_multiple_roots;
    Alcotest.test_case "malformed inputs rejected" `Quick test_malformed;
    Alcotest.test_case "parse_document" `Quick test_parse_document;
    Alcotest.test_case "iter_elements levels" `Quick test_iter_elements_levels;
    Alcotest.test_case "tree stats" `Quick test_stats;
    Alcotest.test_case "render roundtrip" `Quick test_render_roundtrip;
    Alcotest.test_case "render escaping" `Quick test_render_escaping;
    Alcotest.test_case "render_indented reparses" `Quick test_render_indented_reparses;
    Alcotest.test_case "offsets slice back" `Quick test_offsets_slice_back;
  ]
  @ props

(* --- robustness: the parser never crashes, it reports errors --------- *)

let prop_parser_total =
  let gen = QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 1 127)) (int_range 0 60)) in
  QCheck2.Test.make ~name:"parser is total on arbitrary input" ~count:500 gen
    (fun s ->
      match Parser.parse_fragment_result s with Ok _ | Error _ -> true)

let prop_parser_total_xmlish =
  (* Random strings over an XML-flavoured alphabet hit far more parser
     branches than uniform noise. *)
  let gen =
    QCheck2.Gen.(
      map (String.concat "")
        (list_size (int_range 0 25)
           (oneofl [ "<"; ">"; "/"; "a"; "b"; "="; "\""; "'"; "&"; "amp;"; "!"; "-"; "["; "]"; "?"; " " ])))
  in
  QCheck2.Test.make ~name:"parser is total on xml-ish noise" ~count:500 gen
    (fun s ->
      match Parser.parse_fragment_result s with Ok _ | Error _ -> true)

let test_entity_edge_cases () =
  let one s =
    match parse s with
    | [ Tree.Element { children = [ Tree.Text t ]; _ } ] -> t.Tree.content
    | _ -> Alcotest.fail "parse"
  in
  check_string "hex upper" "A" (one "<a>&#x41;</a>");
  check_string "hex lower" "A" (one "<a>&#X41;</a>");
  check_string "two-byte utf8" "\xc3\xa9" (one "<a>&#233;</a>");
  check_string "three-byte utf8" "\xe2\x82\xac" (one "<a>&#8364;</a>");
  expect_error "<a>&#xZZ;</a>";
  expect_error "<a>&;</a>";
  expect_error "<a>&#-5;</a>";
  expect_error "<a>&#99999999;</a>"

let test_whitespace_in_tags () =
  let e = root_element "<a   x = \"1\"   ></a>" in
  check_int "attrs parsed" 1 (List.length e.Tree.attrs);
  let e2 = root_element "<a\n/>" in
  check_string "newline before slash" "a" e2.Tree.tag

let test_crlf_text_preserved () =
  match parse "<a>line1\r\nline2</a>" with
  | [ Tree.Element { children = [ Tree.Text t ]; _ } ] ->
    check_string "crlf kept" "line1\r\nline2" t.Tree.content
  | _ -> Alcotest.fail "parse"

let test_deep_nesting () =
  let depth = 2000 in
  let text =
    String.concat "" (List.init depth (fun _ -> "<a>"))
    ^ String.concat "" (List.init depth (fun _ -> "</a>"))
  in
  let nodes = parse text in
  check_int "deep doc parses" depth (Tree.element_count nodes)

(* --- positions and resource limits ---------------------------------- *)

let test_line_col () =
  let s = "ab\ncde\n\nf" in
  Alcotest.(check (pair int int)) "start" (1, 1) (Parser.line_col s 0);
  Alcotest.(check (pair int int)) "before newline" (1, 3) (Parser.line_col s 2);
  Alcotest.(check (pair int int)) "after newline" (2, 1) (Parser.line_col s 3);
  Alcotest.(check (pair int int)) "line 2" (2, 3) (Parser.line_col s 5);
  Alcotest.(check (pair int int)) "empty line" (3, 1) (Parser.line_col s 7);
  Alcotest.(check (pair int int)) "end of input" (4, 2) (Parser.line_col s 9);
  Alcotest.(check (pair int int)) "clamped" (4, 2) (Parser.line_col s 999)

let test_error_reports_line_col () =
  match Parser.parse_fragment_result "<a>\n  <b>\n</a>" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg ->
    check_bool
      (Printf.sprintf "message %S locates the error" msg)
      true
      (String.starts_with ~prefix:"parse error at line 3, column " msg)

let test_depth_limit () =
  let deep n =
    String.concat "" (List.init n (fun _ -> "<a>"))
    ^ String.concat "" (List.init n (fun _ -> "</a>"))
  in
  let limits = { Parser.default_limits with Parser.max_depth = 4 } in
  check_int "at the limit" 4 (Tree.element_count (Parser.parse_fragment ~limits (deep 4)));
  (match Parser.parse_fragment_result ~limits (deep 5) with
  | Ok _ -> Alcotest.fail "depth 5 accepted under max_depth 4"
  | Error _ -> ());
  (* Sibling depth does not accumulate: only nesting counts. *)
  check_int "siblings unaffected" 8
    (Tree.element_count (Parser.parse_fragment ~limits (deep 4 ^ deep 4)))

let test_attr_limit () =
  let with_attrs n =
    "<a "
    ^ String.concat " " (List.init n (fun i -> Printf.sprintf "k%d=\"v\"" i))
    ^ "/>"
  in
  let limits = { Parser.default_limits with Parser.max_attrs = 3 } in
  check_int "at the limit" 1 (List.length (Parser.parse_fragment ~limits (with_attrs 3)));
  match Parser.parse_fragment_result ~limits (with_attrs 4) with
  | Ok _ -> Alcotest.fail "4 attributes accepted under max_attrs 3"
  | Error _ -> ()

let test_input_size_limit () =
  let limits = { Parser.default_limits with Parser.max_input_bytes = 8 } in
  check_int "small input fine" 1 (List.length (Parser.parse_fragment ~limits "<a/>"));
  match Parser.parse_fragment_result ~limits "<aaaa/><b/>" with
  | Ok _ -> Alcotest.fail "oversized input accepted"
  | Error _ -> ()

let test_default_depth_is_stack_safe () =
  (* 100k nesting levels must hit the depth limit as a Parse_error,
     never blow the stack. *)
  let text =
    Lxu_workload.Generator.deep_chain ~tags:[| "a"; "b" |] ~depth:100_000 ~payload:""
  in
  match Parser.parse_fragment_result text with
  | Ok _ -> Alcotest.fail "100k nesting accepted under default limits"
  | Error msg -> check_bool "limit named in message" true
    (String.length msg > 0 && String.contains msg 'd')

(* --- mutation fuzz: valid documents under random byte edits ---------- *)

let prop_mutation_fuzz =
  QCheck2.Test.make ~name:"mutation fuzz keeps the parser total (quick slice)" ~count:25
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      match Lxu_crash_harness.Parser_fuzz.check_batch ~seed ~rounds:15 with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_report msg)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_parser_total;
      QCheck_alcotest.to_alcotest prop_parser_total_xmlish;
      Alcotest.test_case "entity edge cases" `Quick test_entity_edge_cases;
      Alcotest.test_case "whitespace in tags" `Quick test_whitespace_in_tags;
      Alcotest.test_case "crlf preserved" `Quick test_crlf_text_preserved;
      Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
      Alcotest.test_case "line/col positions" `Quick test_line_col;
      Alcotest.test_case "errors report line and column" `Quick test_error_reports_line_col;
      Alcotest.test_case "depth limit" `Quick test_depth_limit;
      Alcotest.test_case "attribute limit" `Quick test_attr_limit;
      Alcotest.test_case "input size limit" `Quick test_input_size_limit;
      Alcotest.test_case "default depth limit is stack-safe" `Quick
        test_default_depth_is_stack_safe;
      QCheck_alcotest.to_alcotest prop_mutation_fuzz;
    ]
