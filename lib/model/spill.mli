(** Disk-backed BFS frontier segments.

    When a frontier level outgrows the explorer's memory budget, its
    ordered run of packed {!Machine.encode} keys is front-coded (shared
    prefix with the previous key + suffix, LEB128 lengths) into a temp
    file and streamed back level-synchronously. Write order is read
    order, so spilling never perturbs the deterministic frontier id
    numbering that the parallel reduction depends on. The caller owns
    the lifecycle: every written segment must eventually be
    {!remove}d — the explorer does so under [Fun.protect] so temp files
    are cleaned up on normal exit and raised violations alike. *)

type segment

val write : string array -> pos:int -> len:int -> segment
(** Front-code [keys.(pos .. pos + len - 1)] into a fresh temp file. *)

val iter : segment -> (string -> unit) -> unit
(** Stream the keys back, in the order {!write} received them. *)

val remove : segment -> unit
(** Delete the temp file (idempotent; missing files are ignored). *)

val count : segment -> int
(** Number of keys in the segment. *)

val bytes : segment -> int
(** On-disk size in bytes, for the spill statistics. *)
