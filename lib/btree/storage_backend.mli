(** Storage backend selector for the element store: [Mem] reads
    element sets from the in-memory segment skeletons, [Paged] keeps
    the element index on page-backed nodes in a copy-on-write
    {!Lxu_storage_core.Page_store} whose RAM footprint is bounded by
    the buffer pool.

    [attach = true] reopens the index's durable tree from its named
    root slot instead of starting empty — callers must first check the
    store's checkpoint LSN against the snapshot they are loading, and
    rebuild when they disagree. *)

type spec =
  | Mem
  | Paged of { store : Lxu_storage_core.Page_store.t; attach : bool }
