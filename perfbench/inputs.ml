(* Seeded input generation.  Everything a workload feeds the program is
   made here from the seed, before any store exists; the same seed
   always gives the same documents, schedules and op lists. *)

open Lxu_workload

(* [Tiny] is the size the benchmark's own test runs; [Full] is the
   benchmark. *)
type size = Full | Tiny

let xmark ~persons ~seed = Xmark.generate_text ~persons ~items:(persons * 3 / 5) ~seed ()

(* Offsets just past every occurrence of [marker]'s enclosing start tag
   (the first '>' after the marker), in document order. *)
let after_start_tags text marker =
  let m = String.length marker in
  let acc = ref [] in
  for i = String.length text - m downto 0 do
    if String.sub text i m = marker then acc := (String.index_from text i '>' + 1) :: !acc
  done;
  !acc

(* The document of the legacy parallel-join benchmark at scale 1: XMark
   with 2000 persons chopped into ~500 balanced segments, plus extra
   watch and interest segments inserted inside existing elements to
   raise the cross-segment share — 729 segments in all.  The extras are
   applied from the end of the document backwards, so each lands right
   after its start tag and the whole text stays well formed. *)
let join_doc size ~seed =
  let persons, segments = match size with Full -> (2000, 500) | Tiny -> (40, 20) in
  let text = xmark ~persons ~seed in
  let extra_inside marker fragment =
    after_start_tags text marker
    |> List.filteri (fun k _ -> k mod 12 = 0)
    |> List.map (fun gp -> (gp, fragment))
  in
  let rep n s = String.concat "" (List.init n (fun _ -> s)) in
  Chopper.chop ~text ~segments Chopper.Balanced
  @ List.sort
      (fun (a, _) (b, _) -> compare b a)
      (extra_inside "<watches>" (rep 16 "<watch open_auction=\"oa0\"/>")
      @ extra_inside "<profile " (rep 8 "<interest category=\"extra\"/>"))

(* ingest_wal: an XMark document chopped into ~4000 balanced segments.
   The first half is the bulk load; the second half is applied one
   insert at a time, with a front-of-document insert (gp 0) as every
   10th op.  Returns (bulk, writes, expected final text). *)
let ingest size ~seed =
  let persons, segments = match size with Full -> (2000, 4000) | Tiny -> (40, 80) in
  let text = xmark ~persons ~seed in
  let edits = Array.of_list (Chopper.chop ~text ~segments Chopper.Balanced) in
  let half = Array.length edits / 2 in
  let bulk = Array.to_list (Array.sub edits 0 half) in
  let rng = Rng.create (seed * 7919 + 1) in
  let front = ref [] and front_len = ref 0 in
  let writes = ref [] in
  Array.iteri
    (fun i (gp, frag) ->
      if i >= half then begin
        if (i - half) mod 9 = 8 then begin
          let f = Printf.sprintf "<interest category=\"front%d\"/>" (Rng.int rng 1000) in
          writes := (0, f) :: !writes;
          front := f :: !front;
          front_len := !front_len + String.length f
        end;
        (* Front inserts precede every chop edit's coordinate. *)
        writes := (gp + !front_len, frag) :: !writes
      end)
    edits;
  (bulk, List.rev !writes, String.concat "" !front ^ text)

(* mixed_snapshot: a smaller XMark document bulk-loaded as ~2000
   segments, and a stream of small inserts, each a watch element placed
   right after a randomly chosen <watches> start tag.  [next_insert]
   returns the next (gp, fragment) in the document's current
   coordinates; the stream is a pure function of the seed. *)
let mixed size ~seed =
  let persons, segments = match size with Full -> (1000, 2000) | Tiny -> (30, 60) in
  let text = xmark ~persons ~seed in
  let bulk = Chopper.chop ~text ~segments Chopper.Balanced in
  let points = Array.of_list (after_start_tags text "<watches>") in
  let stream () =
    let rng = Rng.create (seed * 104729 + 3) in
    let points = Array.copy points in
    fun () ->
      let k = Rng.int rng (Array.length points) in
      let gp = points.(k) in
      let frag = Printf.sprintf "<watch open_auction=\"oa%d\"/>" (Rng.int rng 1000) in
      let len = String.length frag in
      Array.iteri (fun j p -> if p > gp then points.(j) <- p + len) points;
      (gp, frag)
  in
  (bulk, stream)

(* The read ops.  [Join]s are the paper's five structural joins through
   [Lazy_db.query]; [Twig]s are path expressions through [Path_query],
   covering predicates, child axes, a chain whose tail is the selective
   end, and a path the synopsis proves empty. *)
type read_op = Join of { name : string; anc : string; desc : string } | Twig of { name : string; expr : string }

let joins = List.map (fun (name, anc, desc) -> Join { name; anc; desc }) Xmark.queries

let twigs =
  List.map
    (fun (name, expr) -> Twig { name; expr })
    [
      ("T1", "//person[profile//interest]/name");
      ("T2", "/site/people/person/emailaddress");
      ("T3", "//person[watches/watch][creditcard]//phone");
      ("T4", "//open_auction/bidder/increase");
      ("T5", "//people//person//profile//education");
      ("T6", "//watch//person");
    ]

let read_ops = joins @ twigs
let op_name = function Join j -> j.name | Twig t -> t.name
