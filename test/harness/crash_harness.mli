(** The crash–recover differential harness.

    A workload is a random schedule of valid update operations
    (inserts of well-formed fragments at legal split points, removes
    and packs of whole elements, occasional rebuilds), deterministic
    in its seed.  {!run_one} applies it to a durable database, then
    simulates a crash at {e every} WAL record boundary: each prefix
    is recovered and its query-visible state (document text, element
    and segment counts, and the full all-pairs output of every
    vocabulary join) must be byte-identical to a never-crashed
    reference database that applied the same operation prefix.  On
    top of the boundary sweep it injects torn, bit-flipped and
    duplicated tails and checks recovery lands exactly on the last
    valid LSN instead of erroring out.

    Failures raise [Failure] with the seed, the boundary, and the
    generated schedule prefix ({!ops_to_string}), so any reported
    failure replays exactly — with or without the generator. *)

val vocabulary : string array
(** Element tags the generated fragments draw from. *)

val fragments : string array
(** Well-formed fragments the schedules insert. *)

val element_extents : string -> (int * int) list
(** [(start, stop)] byte extents of every element in a well-formed
    forest — the legal removal targets. *)

val gen_ops : seed:int -> target_ops:int -> Lxu_storage.Wal.op list
(** A valid random schedule of about [target_ops] operations. *)

val apply : Lazy_xml.Lazy_db.t -> Lxu_storage.Wal.op -> unit

val op_to_string : Lxu_storage.Wal.op -> string
(** Human-readable single operation, for replayable failure reports. *)

val ops_to_string : Lxu_storage.Wal.op list -> string
(** ["; "]-joined {!op_to_string} — the schedule prefix every harness
    prints on an assertion failure so the run replays without the
    generator. *)

val fingerprint : Lazy_xml.Lazy_db.t -> string
(** Text, element/segment counts, and all-pairs join output over the
    vocabulary (both axes) — equality means query-indistinguishable. *)

val element_records : Lazy_xml.Lazy_db.t -> string
(** Every [(tid, sid, start, stop, level)] record of the element store,
    read through [Update_log.elements_of] for each (tag, segment) in
    tag-list order — equality means the two element stores agree.
    Empty for the STD engine. *)

(** {2 Shared plumbing}

    The filesystem and differential helpers the other crash-style
    harnesses (notably [Maint_harness]) build their own schedules
    on. *)

val fresh_dir : string -> string
(** A unique per-process temp-directory path (not created). *)

val rm_rf : string -> unit
(** Removes a flat directory and its files; no-op if absent. *)

val read_file : string -> string

val write_file : string -> string -> unit

val check : ctx:string -> string -> Lazy_xml.Lazy_db.t -> unit
(** [check ~ctx expected db] compares {!fingerprint}[ db] against
    [expected].
    @raise Failure with [ctx] and both fingerprints on divergence. *)

val run_one : ?checkpoint_at:int -> seed:int -> target_ops:int -> unit -> int
(** One workload: boundary sweep plus fault injection; with
    [checkpoint_at = k] the database checkpoints after operation [k]
    and every recovery goes through [snapshot + WAL suffix] on disk.
    Returns the number of recoveries performed.
    @raise Failure on any divergence. *)

val run_matrix : seeds:int list -> target_ops:int -> unit
(** {!run_one} for every seed (every third one checkpointing
    mid-workload), printing one progress line per seed.
    @raise Failure on the first diverging seed. *)
