(* One base segment carrying hundreds of child segments and a trail of
   tombstones: every query result is translated through that one wide
   ER node, so its children and tombstones must line up exactly at
   every element start and stop.  Checked under LD and LS and through
   a Shared_db snapshot, against oracles that never translate: the
   naive join over a fresh parse of the text, and naive path
   evaluation on a one-segment rebuild of that text. *)

open Lazy_xml
open Lxu_seglog

let check_bool = Alcotest.(check bool)
let pair_list = Alcotest.(list (pair int int))

let groups = 600

(* <r> + 600 × <a><d/></a> + </r>: group [i] starts at [3 + 11 i]. *)
let base_text = "<r>" ^ String.concat "" (List.init groups (fun _ -> "<a><d/></a>")) ^ "</r>"

(* Bytes of group [i] removed from the base: every 13th group whole,
   every 9th other group its <d/>. *)
let removed i = if i mod 13 = 0 then 11 else if i mod 9 = 0 then 4 else 0

(* Back to front, so each position is still an original offset. *)
let removals =
  List.filter_map
    (fun i ->
      match removed i with
      | 0 -> None
      | 11 -> Some (3 + (11 * i), 11)
      | w -> Some (3 + (11 * i) + 3, w))
    (List.rev (List.init groups Fun.id))

(* Child segments, back to front over the surviving groups in
   post-removal coordinates: one inside every <a> (right after <a>,
   which is a tombstone's start where the <d/> was removed), a second
   at the same position in every 4th group, one at the group's start
   in every 6th and one at its end in every 7th. *)
let inserts =
  let offset = Array.make groups 0 in
  let o = ref 3 in
  for i = 0 to groups - 1 do
    offset.(i) <- !o;
    o := !o + 11 - removed i
  done;
  List.concat_map
    (fun i ->
      if removed i = 11 then []
      else begin
        let o = offset.(i) in
        let inside = o + 3 in
        List.concat
          [
            (if i mod 7 = 0 then [ (o + 11 - removed i, "<d/>") ] else []);
            [ (inside, if i mod 2 = 0 then "<d/>" else "<a><d/></a>") ];
            (if i mod 4 = 0 then [ (inside, "<a/>") ] else []);
            (if i mod 6 = 0 then [ (o, "<a><a><d/></a></a>") ] else []);
          ]
      end)
    (List.rev (List.init groups Fun.id))

let base_node log = Lxu_util.Vec.get (Update_log.root log).Er_node.children 0

let check_wide ~ctx db =
  let log = Option.get (Lazy_db.log db) in
  let base = base_node log in
  check_bool (ctx ^ ": >= 500 child segments") true
    (Lxu_util.Vec.length base.Er_node.children >= 500);
  check_bool (ctx ^ ": base carries tombstones") true
    (Lxu_util.Vec.length base.Er_node.tombstones > 0)

let labels text ~tag =
  let acc = ref [] in
  Lxu_xml.Tree.iter_elements (Lxu_xml.Parser.parse_fragment text) (fun e ~level ->
      if e.Lxu_xml.Tree.tag = tag then
        acc := (e.Lxu_xml.Tree.e_start, e.Lxu_xml.Tree.e_end, level) :: !acc);
  !acc

let joins =
  [
    ("a", "d", Lazy_db.Descendant); ("r", "d", Lazy_db.Descendant);
    ("a", "a", Lazy_db.Descendant); ("r", "a", Lazy_db.Descendant);
    ("a", "d", Lazy_db.Child); ("r", "a", Lazy_db.Child);
  ]

let paths = [ "r//a//d"; "//d"; "a/d"; "/r/a"; "r/a[d]"; "a//a[a]//d" ]

(* Pairs and extents of [db] equal the oracles on its text. *)
let check_against_oracles ~ctx ~engine db =
  let text = Lazy_db.text db in
  List.iter
    (fun (anc, desc, axis) ->
      let std_axis =
        match axis with
        | Lazy_db.Descendant -> Lxu_join.Stack_tree_desc.Descendant
        | Lazy_db.Child -> Lxu_join.Stack_tree_desc.Child
      in
      let expected =
        Lxu_join.Naive_join.join ~axis:std_axis ~anc:(labels text ~tag:anc)
          ~desc:(labels text ~tag:desc) ()
      in
      let got, _ = Lazy_db.query db ~axis ~anc ~desc () in
      Alcotest.check pair_list
        (Printf.sprintf "%s %s%s%s" ctx anc (if axis = Lazy_db.Child then "/" else "//") desc)
        expected got)
    joins;
  let one = Lazy_db.create ~engine () in
  Lazy_db.insert one ~gp:0 text;
  List.iter
    (fun path ->
      let steps = Path_query.parse_exn path in
      Alcotest.check pair_list (ctx ^ " " ^ path)
        (Path_query.eval ~plan:`Naive one steps)
        (Path_query.eval db steps))
    paths

let test_engine engine name () =
  let db = Lazy_db.create ~engine () in
  Lazy_db.insert db ~gp:0 base_text;
  List.iter (fun (gp, len) -> Lazy_db.remove db ~gp ~len) removals;
  List.iter (fun (gp, frag) -> Lazy_db.insert db ~gp frag) inserts;
  Lazy_db.check db;
  check_wide ~ctx:name db;
  check_against_oracles ~ctx:name ~engine db

let test_shared_snapshot () =
  let t = Shared_db.create () in
  Shared_db.insert t ~gp:0 base_text;
  List.iter (fun (gp, len) -> Shared_db.remove t ~gp ~len) removals;
  Shared_db.insert_many t inserts;
  let s = Shared_db.begin_snapshot t in
  let db = Shared_db.snapshot_db s in
  check_wide ~ctx:"snapshot" db;
  check_against_oracles ~ctx:"snapshot" ~engine:Lazy_db.LD db;
  Shared_db.end_snapshot s;
  Shared_db.close t

let suite =
  [
    Alcotest.test_case "LD: pairs and extents = oracles" `Quick (test_engine Lazy_db.LD "LD");
    Alcotest.test_case "LS: pairs and extents = oracles" `Quick (test_engine Lazy_db.LS "LS");
    Alcotest.test_case "Shared_db snapshot = oracles" `Quick test_shared_snapshot;
  ]
