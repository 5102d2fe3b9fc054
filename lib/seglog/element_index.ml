open Lxu_util
open Lxu_btree

type key = { tid : int; sid : int; start : int; stop : int; level : int }

let compare_key a b =
  let c = Int.compare a.tid b.tid in
  if c <> 0 then c
  else begin
    let c = Int.compare a.sid b.sid in
    if c <> 0 then c
    else begin
      let c = Int.compare a.start b.start in
      if c <> 0 then c
      else begin
        let c = Int.compare a.stop b.stop in
        if c <> 0 then c else Int.compare a.level b.level
      end
    end
  end

(* Keys are the five ints in [compare_key]'s significance order, so the
   paged tree's lexicographic word compare realises exactly that order. *)
let kw = 5

let encode (buf : int array) k =
  buf.(0) <- k.tid;
  buf.(1) <- k.sid;
  buf.(2) <- k.start;
  buf.(3) <- k.stop;
  buf.(4) <- k.level

let decode kb = { tid = kb.(0); sid = kb.(1); start = kb.(2); stop = kb.(3); level = kb.(4) }

(* [kbuf] is writer-side scratch (single-writer discipline) so
   per-record operations do not allocate. *)
type t = { tree : Paged_bptree.t; kbuf : int array }

let no_value : int array = [||]

let create store ~attach =
  let tree = Paged_bptree.attach store ~slot:"elem" ~kw ~vw:0 in
  (* Starting fresh over a store that still holds a previous tree
     (checkpoint-LSN mismatch, or a pack/rebuild into the same store):
     release the old pages first. *)
  if not attach then Paged_bptree.clear tree;
  { tree; kbuf = Array.make kw 0 }

let size t = Paged_bptree.length t.tree

let add t k =
  encode t.kbuf k;
  Paged_bptree.insert t.tree t.kbuf no_value

let remove t k =
  encode t.kbuf k;
  Paged_bptree.remove t.tree t.kbuf

let add_batch t keys =
  let n = Array.length keys in
  if n > 0 then begin
    Array.sort compare_key keys;
    Paged_bptree.insert_sorted_batch t.tree ~n ~get:(fun i kbuf _vbuf -> encode kbuf keys.(i))
  end

(* The prefix scan every reader shares: [f] gets the page scratch key
   of each record of (tid, sid) in ascending [start] order. *)
let scan t ~tid ~sid f =
  Paged_bptree.iter_from t.tree [| tid; sid; min_int; min_int; min_int |] (fun kb _ ->
      kb.(0) = tid && kb.(1) = sid && f kb)

let iter_segment t ~tid ~sid f = scan t ~tid ~sid (fun kb -> f (decode kb))

let elements_of_segment t ~tid ~sid =
  let acc = Vec.create () in
  scan t ~tid ~sid (fun kb ->
      Vec.push acc (decode kb);
      true);
  Vec.to_array acc

let cols_of_segment t ~tid ~sid =
  (* The key words go straight from the page scratch into the columns —
     no key records allocated, which keeps the cache-miss path cheap. *)
  let starts = Vec.create () and stops = Vec.create () and levels = Vec.create () in
  scan t ~tid ~sid (fun kb ->
      Vec.push starts kb.(2);
      Vec.push stops kb.(3);
      Vec.push levels kb.(4);
      true);
  { Seg_cache.starts = Vec.to_array starts; stops = Vec.to_array stops;
    levels = Vec.to_array levels }

let iter_all t f =
  Paged_bptree.iter t.tree (fun kb _ ->
      f (decode kb);
      true)

let size_bytes t = Paged_bptree.approx_bytes t.tree
let height t = Paged_bptree.height t.tree
