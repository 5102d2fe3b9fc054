open Lxu_util

type elem = { start : int; stop : int; level : int; tid : int }

type t = {
  sid : int;
  mutable gp : int;
  mutable len : int;
  lp : int;
  orig_len : int;
  base_level : int;
  text : string;
  mutable parent : t option;
  children : t Vec.t;
  tombstones : (int * int) Vec.t;
  mutable elems : elem Vec.t;
}

let make ~sid ~gp ~lp ~base_level ~text ~elems =
  {
    sid;
    gp;
    len = String.length text;
    lp;
    orig_len = String.length text;
    base_level;
    text;
    parent = None;
    children = Vec.create ();
    tombstones = Vec.create ();
    elems = Vec.of_list elems;
  }

let make_root () = make ~sid:0 ~gp:0 ~lp:0 ~base_level:0 ~text:"" ~elems:[]

let is_root t = t.sid = 0

let tombstoned_total t =
  Vec.fold_left (fun acc (a, b) -> acc + (b - a)) 0 t.tombstones

let children_len t = Vec.fold_left (fun acc c -> acc + c.len) 0 t.children

let own_len t = t.orig_len - tombstoned_total t

let virt_of_own_phys t p =
  let v = ref p in
  (* Tombstones are sorted; each gap at or before the running virtual
     position pushes it further right. *)
  Vec.iter
    (fun (a, b) -> if a <= !v then v := !v + (b - a))
    t.tombstones;
  !v

let virt_of_own_phys_before t p =
  let v = ref p in
  (* Strict comparison: a physical offset on a gap boundary resolves to
     the smallest equivalent virtual position (before the gap). *)
  Vec.iter
    (fun (a, b) -> if a < !v then v := !v + (b - a))
    t.tombstones;
  !v

let add_tombstone t a b =
  if a < 0 || b > t.orig_len || a >= b then invalid_arg "Er_node.add_tombstone: bad range";
  (* Merge with every overlapping or adjacent existing tombstone. *)
  let merged_a = ref a and merged_b = ref b in
  let keep = Vec.create () in
  Vec.iter
    (fun (ta, tb) ->
      if tb < !merged_a || ta > !merged_b then Vec.push keep (ta, tb)
      else begin
        merged_a := min !merged_a ta;
        merged_b := max !merged_b tb
      end)
    t.tombstones;
  Vec.push keep (!merged_a, !merged_b);
  Vec.sort (fun (x, _) (y, _) -> Int.compare x y) keep;
  Vec.clear t.tombstones;
  Vec.iter (Vec.push t.tombstones) keep

let depth_at t x =
  let depth = ref t.base_level in
  let i = ref 0 in
  while !i < Vec.length t.elems && (Vec.get t.elems !i).start < x do
    let e = Vec.get t.elems !i in
    if e.stop > x then incr depth;
    incr i
  done;
  !depth

let path t =
  let rec up acc n = match n.parent with None -> n.sid :: acc | Some p -> up (n.sid :: acc) p in
  Array.of_list (up [] t)

let child_index_for_gp t gp =
  Vec.lower_bound t.children ~compare:(fun c -> if c.gp <= gp then -1 else 0)

(* Number of elements of the sorted array [a] that are [<= x] (with
   [le]) or [< x] (without). *)
let count_upto (a : int array) x ~le =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = Array.unsafe_get a mid in
    if v < x || (le && v = x) then lo := mid + 1 else hi := mid
  done;
  !lo

type translator = {
  base : int;  (* [gp] when built *)
  child_lps : int array;  (* non-decreasing, one per child *)
  child_cum : int array;  (* [child_cum.(i)]: summed [len] of children [0, i) *)
  tomb_starts : int array;
  tomb_stops : int array;  (* both increasing: tombstones are sorted and disjoint *)
  tomb_cum : int array;  (* [tomb_cum.(i)]: summed length of tombstones [0, i) *)
}

let prefix_sums n f =
  let cum = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    cum.(i + 1) <- cum.(i) + f i
  done;
  cum

let translator t =
  let nc = Vec.length t.children and nt = Vec.length t.tombstones in
  {
    base = t.gp;
    child_lps = Array.init nc (fun i -> (Vec.get t.children i).lp);
    child_cum = prefix_sums nc (fun i -> (Vec.get t.children i).len);
    tomb_starts = Array.init nt (fun i -> fst (Vec.get t.tombstones i));
    tomb_stops = Array.init nt (fun i -> snd (Vec.get t.tombstones i));
    tomb_cum =
      prefix_sums nt (fun i ->
          let a, b = Vec.get t.tombstones i in
          b - a);
  }

(* Live own bytes before virtual [x]: [x] minus every tombstone ending
   at or before it, minus the part of the one tombstone (if any) that
   straddles it. *)
let live_before tr x =
  let j = count_upto tr.tomb_stops x ~le:true in
  let dead = tr.tomb_cum.(j) in
  let dead =
    if j < Array.length tr.tomb_starts && tr.tomb_starts.(j) < x then
      dead + (x - tr.tomb_starts.(j))
    else dead
  in
  x - dead

let global_start tr x =
  tr.base + live_before tr x + tr.child_cum.(count_upto tr.child_lps x ~le:true)

let global_stop tr x =
  tr.base + live_before tr x + tr.child_cum.(count_upto tr.child_lps x ~le:false)

let rec iter_subtree t f =
  f t;
  Vec.iter (fun c -> iter_subtree c f) t.children

let rec clone n =
  (* [text] is immutable and [elems] is only ever replaced wholesale
     (never mutated in place), so both are shared; [tombstones] and
     [children] are mutated in place by updates and get fresh Vecs. *)
  let c =
    {
      sid = n.sid;
      gp = n.gp;
      len = n.len;
      lp = n.lp;
      orig_len = n.orig_len;
      base_level = n.base_level;
      text = n.text;
      parent = None;
      children = Vec.create ();
      tombstones = Vec.of_array (Vec.to_array n.tombstones);
      elems = n.elems;
    }
  in
  Vec.iter
    (fun k ->
      let kc = clone k in
      kc.parent <- Some c;
      Vec.push c.children kc)
    n.children;
  c

let check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let rec go n =
    if n.len <> own_len n + children_len n then
      fail "segment %d: len %d <> own %d + children %d" n.sid n.len (own_len n)
        (children_len n);
    if is_root n && n.gp <> 0 then fail "root gp moved to %d" n.gp;
    (* Tombstones: sorted, disjoint, within the original text. *)
    let prev_stop = ref (-1) in
    Vec.iter
      (fun (a, b) ->
        if a >= b || a < 0 || b > n.orig_len then fail "segment %d: bad tombstone" n.sid;
        if a <= !prev_stop then fail "segment %d: tombstones overlap or touch" n.sid;
        prev_stop := b)
      n.tombstones;
    (* Elements: strictly ordered starts, proper nesting, sane extents. *)
    let stack = ref [] in
    let prev_start = ref (-1) in
    Vec.iter
      (fun e ->
        if e.start >= e.stop || e.start < 0 || e.stop > n.orig_len then
          fail "segment %d: element extent [%d,%d) out of range" n.sid e.start e.stop;
        if e.start <= !prev_start then fail "segment %d: element starts not increasing" n.sid;
        prev_start := e.start;
        while (match !stack with top :: _ -> top.stop <= e.start | [] -> false) do
          stack := List.tl !stack
        done;
        (match !stack with
        | top :: _ when top.stop < e.stop -> fail "segment %d: elements overlap" n.sid
        | _ -> ());
        if e.level < n.base_level then fail "segment %d: element above base level" n.sid;
        stack := e :: !stack)
      n.elems;
    (* Children: inside the parent span, disjoint, gp- and lp-sorted. *)
    let cursor = ref n.gp in
    let prev_lp = ref min_int in
    Vec.iter
      (fun c ->
        (match c.parent with
        | Some p when p == n -> ()
        | _ -> fail "segment %d: child %d has wrong parent" n.sid c.sid);
        if c.gp < !cursor then fail "segment %d: children overlap at %d" n.sid c.sid;
        if c.gp + c.len > n.gp + n.len then fail "segment %d: child %d escapes" n.sid c.sid;
        if c.lp < !prev_lp then fail "segment %d: child lps out of order" n.sid;
        if c.lp < 0 || c.lp > n.orig_len then fail "segment %d: child %d lp out of range" n.sid c.sid;
        prev_lp := c.lp;
        cursor := c.gp + c.len;
        go c)
      n.children
  in
  go t
