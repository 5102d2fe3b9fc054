exception Parse_error of { pos : int; msg : string }

let fail pos fmt = Printf.ksprintf (fun msg -> raise (Parse_error { pos; msg })) fmt

type limits = { max_depth : int; max_attrs : int; max_input_bytes : int }

let default_limits =
  { max_depth = 4096; max_attrs = 512; max_input_bytes = 256 * 1024 * 1024 }

let line_col input pos =
  let pos = max 0 (min pos (String.length input)) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to pos - 1 do
    if input.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, pos - !bol + 1)

let error_message ~input ~pos ~msg =
  let line, col = line_col input pos in
  Printf.sprintf "parse error at line %d, column %d (byte %d): %s" line col pos msg

type state = {
  input : string;
  len : int;
  mutable pos : int;
  limits : limits;
  mutable depth : int;  (* open elements; bounds the recursion *)
}

let peek st = if st.pos < st.len then Some st.input.[st.pos] else None
let eof st = st.pos >= st.len

let advance st = st.pos <- st.pos + 1

let expect_string st s =
  let n = String.length s in
  if st.pos + n > st.len || String.sub st.input st.pos n <> s then
    fail st.pos "expected %S" s;
  st.pos <- st.pos + n

let looking_at st s =
  let n = String.length s in
  st.pos + n <= st.len && String.sub st.input st.pos n = s

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let skip_space st =
  while (not (eof st)) && is_space st.input.[st.pos] do
    advance st
  done

let parse_name st =
  let start = st.pos in
  (match peek st with
  | Some c when is_name_start c -> advance st
  | _ -> fail st.pos "expected a name");
  while (not (eof st)) && is_name_char st.input.[st.pos] do
    advance st
  done;
  String.sub st.input start (st.pos - start)

(* Decodes a character or entity reference positioned on '&'. *)
let parse_reference st buf =
  let start = st.pos in
  advance st;
  let semi =
    match String.index_from_opt st.input st.pos ';' with
    | Some i when i - start <= 12 -> i
    | _ -> fail start "unterminated entity reference"
  in
  let body = String.sub st.input st.pos (semi - st.pos) in
  st.pos <- semi + 1;
  match body with
  | "lt" -> Buffer.add_char buf '<'
  | "gt" -> Buffer.add_char buf '>'
  | "amp" -> Buffer.add_char buf '&'
  | "apos" -> Buffer.add_char buf '\''
  | "quot" -> Buffer.add_char buf '"'
  | _ ->
    if String.length body > 1 && body.[0] = '#' then begin
      let code =
        try
          if body.[1] = 'x' || body.[1] = 'X' then
            int_of_string ("0x" ^ String.sub body 2 (String.length body - 2))
          else int_of_string (String.sub body 1 (String.length body - 1))
        with _ -> fail start "bad character reference &%s;" body
      in
      if code < 0 || code > 0x10FFFF then
        fail start "character reference &%s; is outside Unicode" body;
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else begin
        (* Minimal UTF-8 encoder for the few non-ASCII references the
           synthetic workloads may produce. *)
        let add c = Buffer.add_char buf (Char.chr c) in
        if code < 0x800 then begin
          add (0xC0 lor (code lsr 6));
          add (0x80 lor (code land 0x3F))
        end
        else if code < 0x10000 then begin
          add (0xE0 lor (code lsr 12));
          add (0x80 lor ((code lsr 6) land 0x3F));
          add (0x80 lor (code land 0x3F))
        end
        else begin
          add (0xF0 lor (code lsr 18));
          add (0x80 lor ((code lsr 12) land 0x3F));
          add (0x80 lor ((code lsr 6) land 0x3F));
          add (0x80 lor (code land 0x3F))
        end
      end
    end
    else fail start "unknown entity &%s;" body

let parse_attr_value st =
  let quote =
    match peek st with
    | Some (('"' | '\'') as q) ->
      advance st;
      q
    | _ -> fail st.pos "expected quoted attribute value"
  in
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st.pos "unterminated attribute value"
    | Some c when c = quote ->
      advance st;
      Buffer.contents buf
    | Some '&' ->
      parse_reference st buf;
      go ()
    | Some '<' -> fail st.pos "'<' in attribute value"
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ()

let parse_attrs st =
  let rec go n acc =
    skip_space st;
    match peek st with
    | Some c when is_name_start c ->
      let a_start = st.pos in
      if n >= st.limits.max_attrs then
        fail a_start "more than %d attributes on one element" st.limits.max_attrs;
      let attr_name = parse_name st in
      skip_space st;
      expect_string st "=";
      skip_space st;
      let attr_value = parse_attr_value st in
      go (n + 1) ({ Tree.attr_name; attr_value; a_start; a_end = st.pos } :: acc)
    | _ -> List.rev acc
  in
  go 0 []

(* Scans until [delim] and returns the raw contents; [st.pos] must be
   just past the opening marker. *)
let raw_until st ~start_err delim =
  let start = st.pos in
  let rec find i =
    if i + String.length delim > st.len then fail start "unterminated %s" start_err
    else if String.sub st.input i (String.length delim) = delim then i
    else find (i + 1)
  in
  let stop = find st.pos in
  let body = String.sub st.input start (stop - start) in
  st.pos <- stop + String.length delim;
  body

let parse_text st =
  let start = st.pos in
  let buf = Buffer.create 32 in
  let rec go () =
    match peek st with
    | None | Some '<' -> ()
    | Some '&' ->
      parse_reference st buf;
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  { Tree.content = Buffer.contents buf; t_start = start; t_end = st.pos }

let rec parse_element st =
  st.depth <- st.depth + 1;
  if st.depth > st.limits.max_depth then
    fail st.pos "element nesting exceeds the depth limit (%d)" st.limits.max_depth;
  let e = parse_element_body st in
  st.depth <- st.depth - 1;
  e

and parse_element_body st =
  let start = st.pos in
  expect_string st "<";
  let tag = parse_name st in
  let attrs = parse_attrs st in
  skip_space st;
  if looking_at st "/>" then begin
    st.pos <- st.pos + 2;
    { Tree.tag; attrs; children = []; e_start = start; e_end = st.pos }
  end
  else begin
    expect_string st ">";
    let children = parse_content st tag in
    (* parse_content consumed "</", the matching tag name and ">" *)
    { Tree.tag; attrs; children; e_start = start; e_end = st.pos }
  end

(* Parses child nodes of [tag] up to and including its end tag. *)
and parse_content st tag =
  let rec go acc =
    if eof st then fail st.pos "missing </%s>" tag
    else if looking_at st "</" then begin
      let close_pos = st.pos in
      st.pos <- st.pos + 2;
      let name = parse_name st in
      skip_space st;
      expect_string st ">";
      if name <> tag then fail close_pos "mismatched </%s>, expected </%s>" name tag;
      List.rev acc
    end
    else go (parse_node st :: acc)
  in
  go []

and parse_node st =
  if looking_at st "<!--" then begin
    let start = st.pos in
    st.pos <- st.pos + 4;
    let body = raw_until st ~start_err:"comment" "-->" in
    Tree.Comment { content = body; t_start = start; t_end = st.pos }
  end
  else if looking_at st "<![CDATA[" then begin
    let start = st.pos in
    st.pos <- st.pos + 9;
    let body = raw_until st ~start_err:"CDATA section" "]]>" in
    Tree.Cdata { content = body; t_start = start; t_end = st.pos }
  end
  else if looking_at st "<?" then begin
    let start = st.pos in
    st.pos <- st.pos + 2;
    let body = raw_until st ~start_err:"processing instruction" "?>" in
    Tree.Pi { content = body; t_start = start; t_end = st.pos }
  end
  else if looking_at st "<!" then fail st.pos "DTD declarations are not supported"
  else if looking_at st "<" then Tree.Element (parse_element st)
  else Tree.Text (parse_text st)

let parse_fragment ?(limits = default_limits) input =
  if String.length input > limits.max_input_bytes then
    fail limits.max_input_bytes "input of %d bytes exceeds the %d-byte limit"
      (String.length input) limits.max_input_bytes;
  let st = { input; len = String.length input; pos = 0; limits; depth = 0 } in
  let rec go acc =
    if eof st then List.rev acc
    else if looking_at st "</" then fail st.pos "unexpected end tag at top level"
    else go (parse_node st :: acc)
  in
  go []

let is_blank_text = function
  | Tree.Text t -> String.for_all is_space t.Tree.content
  | Tree.Comment _ | Tree.Pi _ -> true
  | Tree.Cdata _ | Tree.Element _ -> false

let parse_document ?limits input =
  let nodes = parse_fragment ?limits input in
  let roots =
    List.filter_map (function Tree.Element e -> Some e | _ -> None) nodes
  in
  let stray = List.exists (fun n -> not (is_blank_text n)) (List.filter (function Tree.Element _ -> false | _ -> true) nodes) in
  match roots with
  | [ root ] when not stray -> root
  | [ _ ] -> fail 0 "stray character data outside the root element"
  | [] -> fail 0 "no root element"
  | _ -> fail 0 "multiple root elements"

let parse_fragment_result ?limits input =
  match parse_fragment ?limits input with
  | nodes -> Ok nodes
  | exception Parse_error { pos; msg } -> Error (error_message ~input ~pos ~msg)

let is_well_formed_fragment ?limits input =
  match parse_fragment_result ?limits input with Ok _ -> true | Error _ -> false
