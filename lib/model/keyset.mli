(** Open-addressing hash set of packed state keys.

    The visited set is the hottest data structure in {!Explore}: every
    generated successor does one membership-test-and-insert. A stdlib
    [Hashtbl] pays two probe sequences ([mem] then [add]) and a bucket
    cell allocation per insert; this set does a single linear-probe pass
    and allocates nothing beyond the key array.

    Keys must be non-empty strings (the empty string is the internal
    empty-slot sentinel) — {!Machine.encode} always produces at least two
    bytes. Iteration order is unspecified; membership and {!count} are
    deterministic. Not thread-safe: in the parallel explorer each shard
    is owned by exactly one worker. *)

type t

val create : int -> t
(** [create n] makes an empty set sized for about [n] keys (it grows as
    needed regardless). *)

val add_if_absent : t -> string -> bool
(** [add_if_absent s key] inserts [key] and returns [true] if it was not
    yet present; returns [false] (and changes nothing) if it was. *)

val mem : t -> string -> bool

val count : t -> int
(** Number of keys in the set. *)
