(** The element index (§3.4): a paged B{^+}-tree over
    [(tid, sid, start, stop, level)] keys, the element store of
    [`Paged] storage.  (In-memory logs read element sets straight from
    the segment skeletons instead; see {!Update_log.elements_of}.)

    [start]/[stop] are the element's immutable virtual local positions
    inside segment [sid], so index records never need updating when
    other segments are inserted or removed — the whole point of the
    lazy scheme.  [(sid, start)] identifies an element uniquely.

    The prefix scan {!iter_segment} enumerates the elements of one tag
    inside one segment in local document order, which is exactly what
    Lazy-Join pushes on its stack. *)

type key = { tid : int; sid : int; start : int; stop : int; level : int }

type t

val create : Lxu_storage_core.Page_store.t -> attach:bool -> t
(** The index over [store]'s ["elem"] root slot.  [attach = true]
    reopens the durable tree as-is — only valid when the store's
    checkpoint LSN matches the snapshot being loaded; [attach = false]
    frees any previous tree and starts empty. *)

val size : t -> int

val add : t -> key -> unit
val remove : t -> key -> bool

val add_batch : t -> key array -> unit
(** Bulk insertion for batched ingestion: sorts [keys] in place and
    merges them into the tree in one sorted pass instead of one
    descent per key.  [(sid, start)] identifies an element, so the
    keys of distinct elements are distinct; a repeated key is stored
    once. *)

val iter_segment : t -> tid:int -> sid:int -> (key -> bool) -> unit
(** [iter_segment t ~tid ~sid f] applies [f] to the records of tag
    [tid] in segment [sid] in ascending [start] order, stopping early
    when [f] returns [false]. *)

val elements_of_segment : t -> tid:int -> sid:int -> key array

val cols_of_segment : t -> tid:int -> sid:int -> Seg_cache.cols
(** Columnar variant of {!elements_of_segment}: the same records as
    three unboxed [int array]s sorted by [start] — the cache-miss
    materialization path of {!Seg_cache}. *)

val iter_all : t -> (key -> unit) -> unit

val size_bytes : t -> int
(** Bytes of the tree's pages. *)

val height : t -> int
