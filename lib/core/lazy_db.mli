(** Lazy XML database — the paper's system behind one facade.

    A database is a single {e super document} edited by inserting and
    removing well-formed XML segments at byte positions, exactly the
    text-editing model of §1.  Three engines implement the same
    interface:

    {ul
    {- [LD] (lazy dynamic): the update log of §3 kept query-ready on
       every update; queries run Lazy-Join (§4.2).}
    {- [LS] (lazy static): updates append to the tag lists unsorted;
       they are sorted at query time (§5.1).  The SB-tree, a sid-keyed
       hash table, is exact under both lazy engines.}
    {- [STD] (traditional): global interval labels relabelled on every
       update; queries run Stack-Tree-Desc — the baseline the paper
       compares against.}}

    Queries are single structural joins [anc//desc] or [anc/desc],
    the primitive the paper (and the structural-join literature it
    builds on) optimizes. *)

type engine = LD | LS | STD
type axis = Descendant | Child

type t

type query_stats = {
  pair_count : int;
  cross_pairs : int;  (** cross-segment pairs (0 for [STD]) *)
  in_pairs : int;
      (** in-segment pairs (every pair, for the segment-less [STD]) *)
  segments_skipped : int;  (** SL_A segments pruned by Lazy-Join *)
  elements_scanned : int;
}

val create :
  ?engine:engine ->
  ?index_attributes:bool ->
  ?pack_threshold:int ->
  ?domains:int ->
  ?durability:[ `None | `Wal of string ] ->
  ?cache_bytes:int ->
  ?storage:[ `Mem | `Paged ] ->
  unit ->
  t
(** An empty database; [engine] defaults to [LD].  With
    [~index_attributes:true] attributes are indexed as subelements
    named ["@name"] and can appear in queries (e.g. [~desc:"@id"]).
    [pack_threshold] automates the paper's "maintenance hours": after
    any update leaving more than that many segments, the database is
    re-indexed as a single segment (ignored by [STD]).

    [domains] sets the degree of query parallelism for the lazy
    engines: with [domains > 1] Lazy-Join runs its per-segment join
    units on a process-wide shared domain pool of that size (see
    {!Lxu_util.Domain_pool}), returning results identical to the
    sequential path.  Defaults to the [LXU_DOMAINS] environment
    variable, or 1 (fully sequential) when unset.  The [STD] engine's
    Stack-Tree-Desc baseline works on one global interval list whose
    merge carries stack state across the whole scan, so it stays
    sequential regardless of [domains].

    [durability] (default [`None]) makes every update crash-safe:
    with [`Wal dir] the database owns directory [dir], appending one
    checksummed record per {!insert}/{!remove}/{!pack_subtree}/
    {!rebuild} to a write-ahead log there (see {!Lxu_storage.Wal}),
    so {!recover} restores the state after a crash.  [`Wal] starts
    [dir] fresh — use {!recover} to resume an existing one.
    Auto-packing via [pack_threshold] is {e not} logged: it never
    changes the document text, and recovery reproduces query-visible
    state, not internal segmentation chosen by thresholds.

    [cache_bytes] bounds the lazy engines' read-side element cache
    (see {!Lxu_seglog.Seg_cache}; default
    {!Lxu_seglog.Seg_cache.default_max_bytes}, [<= 0] disables it).
    The setting survives re-indexing ({!rebuild}, [pack_threshold]);
    ignored by [STD].  Caching never changes results or join
    statistics — only which fetches hit memory instead of the element
    index.

    [storage] picks the element store.  [`Mem] (the default) reads
    element sets from the segment skeletons on the OCaml heap — no
    separate index.  [`Paged] keeps the paper's element index on
    copy-on-write pages in a {!Lxu_storage.Page_store} whose RAM
    residency is bounded by the buffer-pool budget ([LXU_POOL_BYTES]).
    The pool bounds index pages only: the skeletons, SB-tree and tag
    lists stay resident under both backends.  This is the beyond-RAM
    path for the element index: with [`Wal dir]
    durability the pages live in [dir/pages] and {!checkpoint} makes
    them durable alongside the snapshot; without durability they live
    on an in-memory device (bounded residency, no persistence).
    Defaults to the [LXU_STORAGE] environment variable ([paged]
    selects [`Paged]), or [`Mem] when unset.  Results are
    fingerprint-identical across backends.
    @raise Invalid_argument if [pack_threshold < 1], [domains < 1],
    or [durability] or [`Paged] storage is combined with the [STD]
    engine (which keeps no reconstructible state). *)

val engine : t -> engine

val domains : t -> int
(** The configured query parallelism (1 = sequential). *)

val query_pool : t -> Lxu_util.Domain_pool.t option
(** The shared domain pool {!query} draws on, created lazily on first
    use: [None] iff [domains <= 1].  Exposed so planned path
    evaluation can run its joins with the same parallelism as direct
    queries. *)

(** {2 MVCC snapshots}

    Every successful update ({!insert}, {!insert_many}, {!remove},
    {!rebuild}, {!pack_subtree}) commits one {e epoch} — a
    session-local version number published to the read-side element
    cache, so the segment invalidations of epoch [e] take effect
    exactly at [e] and snapshots pinned below keep their versions. *)

val epoch : t -> int
(** Committed update operations so far (0 for a fresh database); for a
    {!snapshot}, the epoch it is pinned at. *)

val snapshot : t -> t
(** An immutable snapshot of the database at its current epoch: a
    frozen clone of the update log (segment texts and element arrays
    shared, bookkeeping copied) served by the same query engines and
    the same element cache, with every columnar lookup pinned at the
    snapshot's epoch.  Queries on the snapshot and updates on the live
    database may run concurrently from different domains without any
    lock — {!Shared_db} builds its lock-free reader path on exactly
    this.  Updates and maintenance on the snapshot raise
    [Invalid_argument]; queries, counts, {!text}, {!check} and
    {!save} all work.
    @raise Invalid_argument for the [STD] engine, which keeps no
    versioned state. *)

val with_snapshot : t -> (t -> 'a) -> 'a
(** [with_snapshot t f] runs [f] on {!snapshot}[ t] — the multi-op
    read-transaction surface: every query [f] issues sees the same
    epoch no matter how many updates commit meanwhile. *)

val is_snapshot : t -> bool

val insert : t -> gp:int -> string -> unit
(** Inserts a well-formed fragment at global byte position [gp].
    @raise Invalid_argument on out-of-bounds positions or empty text.
    @raise Lxu_xml.Parser.Parse_error on ill-formed text. *)

val insert_many : t -> (int * string) list -> unit
(** [insert_many t edits] applies the [(gp, text)] inserts in order,
    equivalent to — and fingerprint-identical with — calling {!insert}
    for each, but through the batched write path: one parse fan-out
    (over the database's domain pool), one bulk merge into each index
    (see {!Lxu_seglog.Update_log.insert_batch}), and one WAL record
    group persisted with a single flush.  A crash mid-batch recovers a
    prefix of the batch.

    For the lazy engines the batch is all-or-nothing: on
    [Invalid_argument] or [Parse_error] no edit is applied and nothing
    is logged.  The [STD] engine applies edits one at a time (no
    batched path; it is the paper's baseline) and may stop mid-list on
    an invalid edit.
    @raise Invalid_argument / [Parse_error] as {!insert}, with gp
    bounds checked against the document as it will be after the
    preceding edits of the batch. *)

val remove : t -> gp:int -> len:int -> unit
(** Removes the byte range [gp, gp+len), which must be a well-formed
    fragment of the current document. *)

val query :
  t ->
  ?axis:axis ->
  ?guard:Lxu_util.Deadline.guard ->
  anc:string ->
  desc:string ->
  unit ->
  (int * int) list * query_stats
(** [query t ~anc ~desc ()] evaluates [anc//desc] (or [anc/desc] with
    [~axis:Child]) and returns [(anc_gstart, desc_gstart)] pairs sorted
    by [(desc, anc)], plus evaluation statistics.

    [guard] makes the join cooperative (see {!Lxu_join.Lazy_join.run}):
    evaluation raises [Lxu_util.Deadline.Cancel.Cancelled] promptly on
    a cancel or deadline expiry instead of running to completion.
    Without it, behaviour and cost are exactly as before. *)

val count :
  t -> ?axis:axis -> ?guard:Lxu_util.Deadline.guard -> anc:string -> desc:string -> unit -> int
(** Result cardinality of the join.  [guard] as in {!query}. *)

val doc_length : t -> int
val element_count : t -> int

val segment_count : t -> int
(** Live segments (always 1 after {!rebuild}; 0 for [STD] engines and
    empty documents). *)

val text : t -> string
(** The full super-document text. *)

val rebuild : t -> unit
(** The "maintenance hours" operation of §1: re-indexes the whole
    database as a single segment and clears the update log.  No-op for
    [STD]. *)

val pack_subtree : t -> gp:int -> len:int -> unit
(** Segment packing (the future-work direction of §6): collapses every
    segment overlapping the byte range [gp, gp+len) — which must be a
    well-formed fragment — into a single segment, reducing the segment
    count at the cost of re-indexing that range.  No-op for [STD]. *)

val log : t -> Lxu_seglog.Update_log.t option
(** The underlying update log ([None] for [STD]). *)

val store : t -> Lxu_labeling.Interval_store.t option
(** The underlying traditional store ([None] for lazy engines). *)

val cache_stats : t -> Lxu_seglog.Seg_cache.stats option
(** Read-side cache counters of the current log ([None] for [STD]).
    Counters reset when the log is replaced ({!rebuild}, auto-pack,
    {!load}, {!recover} — all of which also start the cache cold). *)

val size_bytes : t -> int
(** Footprint of the index structures: the update log plus its element
    store ({!Lxu_seglog.Update_log.element_store_bytes}), or the
    interval store. *)

val check : t -> unit
(** Full invariant check (test helper). *)

val save : t -> string -> unit
(** [save t path] writes a snapshot of a lazy-engine database —
    segment structure, immutable local labels, tombstones — to [path].
    @raise Invalid_argument for the [STD] engine, which keeps no
    reconstructible state. *)

val load :
  ?domains:int ->
  ?durability:[ `None | `Wal of string ] ->
  ?storage:[ `Mem | `Paged ] ->
  string ->
  t
(** Restores a database saved with {!save}; queries, updates and local
    labels behave exactly as before the save.  [domains] and [storage]
    as in {!create} (a save file carries no storage kind — the indexes
    are rebuilt into whichever backend is requested).  With
    [~durability:(`Wal dir)] the loaded state immediately becomes the
    base checkpoint of a fresh WAL directory, and subsequent updates
    are logged there.
    @raise Failure on a malformed snapshot; the message includes the
    file path and byte offset.
    @raise Sys_error if the file cannot be read. *)

(** {2 Durability}

    With [~durability:(`Wal dir)], the database's persistent state is
    [dir/snapshot] (the last {!checkpoint}, tagged with its LSN) plus
    [dir/wal] (one checksummed record per update since).  {!recover}
    reads both, replays the WAL suffix past the snapshot's LSN, and
    truncates any torn or corrupt tail at the first invalid record —
    the crash-safety contract exercised by the fault-injection
    harness in [test/]. *)

val checkpoint : t -> unit
(** Snapshots the current state into the WAL directory and rotates
    the log to empty, bounding recovery time.  Crash-safe at every
    step (temp-file renames; recovery skips already-snapshotted
    records).  On a paged database the page store is checkpointed
    first at the same LSN — a flush of dirty pages plus one meta-page
    write, {e not} a rewrite of the whole index — so {!recover} can
    re-attach the paged indexes instead of rebuilding them.
    @raise Invalid_argument if the database has no WAL. *)

val batch : t -> (unit -> 'a) -> 'a
(** Group commit: updates performed by [f] are logged but only
    persisted — as a single device write — when [f] returns.  A crash
    mid-batch recovers a prefix of the batch.  Without durability,
    just runs [f].  Not reentrant. *)

val recover :
  ?domains:int -> ?storage:[ `Mem | `Paged ] -> string -> t * Lxu_storage.Recovery.report
(** [recover dir] restores the database whose durability directory is
    [dir] and reopens its WAL for appending, repairing (truncating) a
    torn tail in place.  The report says what was replayed, skipped
    and discarded.

    With [`Paged] storage (explicit or via [LXU_STORAGE]) the page
    store at [dir/pages] is reopened: when its durable checkpoint LSN
    matches the snapshot's, the paged indexes are {e attached} as-is —
    recovery cost proportional to the WAL suffix, not the index size;
    on any mismatch (crash between the page checkpoint and the
    snapshot, missing or torn pages file) the indexes are rebuilt into
    a reset store, which is slower but always sound.
    @raise Failure when [dir] holds nothing recoverable. *)

val wal_dir : t -> string option
(** The durability directory, when the database has one. *)

val storage_kind : t -> [ `Mem | `Paged ]

val page_store : t -> Lxu_storage.Page_store.t option
(** The copy-on-write page store backing the indexes ([None] under
    [`Mem] storage and on snapshots). *)

val page_stats : t -> Lxu_storage.Page_store.stats option
(** Page-store counters — pages, free lists, generation, buffer-pool
    hits/evictions — when the database is paged. *)

val wal_bytes : t -> int option
(** Current size of the live WAL file, when the database has one — the
    maintenance scheduler's rolling-checkpoint trigger. *)

val backup : t -> dir:string -> int
(** [backup t ~dir] ships the durable state — snapshot (if any) plus
    the committed WAL — into directory [dir] via atomic renames (see
    {!Lxu_storage.Wal_store.backup}) and returns the last committed
    LSN.  Call with the database quiescent (e.g. inside
    {!Shared_db.write}).
    @raise Invalid_argument without durability, inside {!batch}, or
    when [dir] is the live directory. *)

val restore_to :
  ?domains:int -> lsn:int -> string -> t * Lxu_storage.Recovery.report
(** [restore_to ~lsn dir] is point-in-time restore: rebuilds the
    database exactly as of committed LSN [lsn] from [dir] (a live
    durability directory or a {!backup}), replaying the WAL prefix and
    skipping everything past [lsn].  [dir] is never written, and the
    returned database has {e no} durability handle — it is a read-only
    reconstruction of a point in the middle of [dir]'s history;
    persist it with {!save}/{!load} if it should become a new line of
    history.
    @raise Failure when [dir] holds nothing recoverable or its
    snapshot already covers more history than [lsn]. *)

val close : t -> unit
(** Commits any buffered WAL records and closes the log file.  No-op
    without durability; idempotent. *)

val of_log : ?domains:int -> Lxu_seglog.Update_log.t -> t
(** Wraps an existing update log (engine inferred from its mode, no
    durability) — the hook the recovery test harness uses to query
    logs it rebuilt by hand. *)
