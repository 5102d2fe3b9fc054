(* Where the element store lives.  [Mem] is the in-memory default (the
   segment skeletons); [Paged] puts the element index on copy-on-write
   pages in a {!Lxu_storage_core.Page_store}, bounded in RAM by its
   buffer pool.  [attach = true] means a durable index already exists
   in the store (named root slot) and should be reopened rather than
   built empty — valid only when the store's checkpoint LSN matches
   the snapshot being loaded. *)

type spec =
  | Mem
  | Paged of { store : Lxu_storage_core.Page_store.t; attach : bool }
