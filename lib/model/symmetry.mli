(** The open cube's automorphism group, and canonicalization of
    {!Machine.state}s under it.

    A permutation of node ids is an automorphism when it preserves
    {!Opencube.dist} (and therefore every p-group: the d-groups are
    exactly the balls of the [dist] ultrametric). The group is the
    automorphism group of the complete binary tree over the id space —
    the p-fold iterated wreath product of S2, of order [2^(2^p - 1)] —
    generated here from XOR-translations [i ↦ i lxor m] together with
    per-block half-swaps; genuine bit {e permutations} are
    dist-preserving only when they are the identity ([dist 0 (1 lsl b) =
    b + 1] pins every bit), so they contribute nothing beyond it. Every
    generated element is validated against the closed-form [dist].

    The protocol's dynamics, invariants and terminal conditions depend
    on node ids only through [dist] and per-node state, so they commute
    with every automorphism: exploring one representative per orbit
    visits the whole quotient state space soundly. *)

type t
(** An immutable group table for one cube dimension. After construction
    every operation is a pure read, safe to share across domains; build
    the table (first {!table} call per [p]) before going parallel. *)

type perm = int array
(** A permutation as an array: node [i] is renamed to [perm.(i)]. *)

val table : p:int -> t
(** The memoized group table for dimension [p]: the full automorphism
    group when it fits ([p <= 3]; orders 1, 2, 8, 128), otherwise the
    XOR-translation subgroup ([2^p] elements — a sound but coarser
    quotient; see {!is_exact}). Raises [Invalid_argument] for [p < 0]
    or [p > 10]. *)

val order : t -> int
(** Number of group elements. Element [0] is always the identity. *)

val dim : t -> int

val is_exact : t -> bool
(** [true] when the table holds the full automorphism group, [false]
    for the translation-subgroup fallback ([p >= 4]). *)

val perm : t -> int -> perm
(** The [k]-th permutation. Treat as read-only. *)

val inverse : t -> int -> int
(** Index of the inverse permutation. *)

val compose : t -> int -> int -> int
(** [compose t a b] is the index of [perm t a ∘ perm t b] (apply [b]
    first). *)

val generators : p:int -> perm list
(** The generating set: all XOR-translations and all per-block
    half-swaps, in a fixed deterministic order. *)

val is_automorphism : p:int -> perm -> bool
(** Whether an arbitrary permutation preserves the closed-form
    {!Opencube.dist} — exhaustively over all pairs up to 64 nodes, on a
    deterministic sample beyond. Used to validate every table element
    at build time, and by the tests to brute-force the group. *)

type canon = {
  key : string;
      (** the {!Machine.encode} key of the least relabeling by
          {!Machine.compare} *)
  hash : int;  (** {!Machine.hash} of that relabeling *)
  in_flight : int;  (** in-flight message count (orbit-invariant) *)
  perm_index : int;
      (** index of a permutation [σ] with [encode (relabel σ st) = key] *)
  orbit : int;  (** orbit size: how many raw states this key stands for *)
}

val canonicalize : t -> Machine.state -> canon
(** The canonical representative of a state's orbit: the least
    relabeling in the group by content ({!Machine.compare}, which does
    not depend on node ids). Two states get the same [key] iff some
    automorphism maps one to the other. *)
