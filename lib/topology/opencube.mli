(** The open-cube rooted tree (paper, Section 2).

    An open-cube over [n = 2^p] nodes is an n-hypercube from which links have
    been removed so that what remains is a rooted tree: recursively, two
    (p-1)-open-cubes whose roots are linked by one directed edge. Nodes are
    identified by [0 .. n-1] (the paper uses [1 .. n]); with this contiguous
    labelling the initial configuration is the binomial tree
    [father i = i land (i - 1)].

    Two kinds of data live here:

    - {b static} data that no legal evolution of the tree ever changes:
      the p-group decomposition (aligned blocks of size [2^d]), the
      distance function [dist] (Cor. 2.2 and 2.3 of the paper) and the
      initial tree — all closed forms of the node id and the level, no
      per-node records materialized;
    - {b dynamic} data: the father pointers, mutated only by
      {!b_transform} (Theorem 2.1) — or by raw {!set_father} during
      fault-recovery, after which {!check} may legitimately fail until the
      repair protocol has run.

    The tree stores only a flat [Bigarray] of father ids and recomputes
    sons by id arithmetic (DESIGN.md §11) — O(N) words of flat memory,
    O(p) [last_son]/[b_transform] — and scales to [p = 20] (N ≈ 1M) and
    beyond. The test suite holds an explicit record-and-adjacency tree
    as the reference oracle and checks every accessor against it.

    All functions raise [Invalid_argument] on out-of-range node ids. *)

type t

(** {1 Construction} *)

val build : p:int -> t
(** [build ~p] is the initial [2^p]-node open-cube of Figure 2: node [0]
    is the root, [father i = i land (i-1)]. [p] must be in [0..24]. *)

val of_fathers : int option array -> t
(** Adopt an arbitrary father array (length must be a power of two). No
    structural validation is performed — use {!check}. *)

val copy : t -> t

(** {1 Static structure} *)

val order : t -> int
(** Number of nodes [n = 2^p]. *)

val pmax : t -> int
(** [p = log2 n], the power of the root (paper: [pmax]). *)

val dist : int -> int -> int
(** [dist i j] is the smallest [d] such that [i] and [j] belong to the same
    d-group (Definition 2.2). Closed form: the bit length of [i lxor j].
    Constant under b-transformations (Cor. 2.3), hence independent of any
    tree value. [dist i i = 0]. *)

val dist_matrix : p:int -> int array array
(** Reference implementation of {!dist} computed from the recursive group
    definition; used by tests to validate the closed form. *)

val p_group : d:int -> int -> int list
(** [p_group ~d i] is the d-group containing node [i]: the aligned block of
    [2^d] node ids. Static (Cor. 2.2). *)

(** {2 The initial tree in closed form}

    Pure functions of the node id and the dimension — what the protocol
    engine uses to seed [2^p] nodes without building any tree value. *)

val initial_father : int -> int option
(** [i land (i - 1)]; [None] for node 0. *)

val initial_power : p:int -> int -> int
(** Index of the lowest set bit of [i] ([p] for node 0): the node's power
    in the initial tree. *)

val initial_sons : p:int -> int -> int list
(** [[i lor (1 lsl b)]] for [b] below the lowest set bit of [i]: the son
    at distance [b + 1]. Ascending (= ascending distance). *)

val initial_last_son : p:int -> int -> int option
(** [i lor (1 lsl (initial_power i - 1))], or [None] for a leaf. *)

(** {1 Dynamic structure} *)

val father : t -> int -> int option
(** [None] for the current root. *)

val set_father : t -> int -> int option -> unit
(** Raw pointer update (used by the protocol engine and by fault recovery);
    performs no structural check. It also drops the closed-form son
    reconstruction back to a scan of the father array until the next
    successful {!check}. *)

val root : t -> int
(** The unique node with no father.
    @raise Failure if the father array has no root (corrupted state). *)

val power : t -> int -> int
(** Definition 2.1 via Prop. 2.1: [dist i (father i) - 1], or [pmax] for the
    root. *)

val sons : t -> int -> int list
(** Nodes whose father is the given node, in increasing id order. *)

val last_son : t -> int -> int option
(** The son of power [power i - 1] (Definition 2.3), if the node has sons. *)

val is_last_son : t -> son:int -> father:int -> bool
(** [(son, father)] is a boundary edge: [dist father son = power father]. *)

val is_boundary_edge : t -> son:int -> father:int -> bool
(** Alias of {!is_last_son} with the paper's vocabulary. *)

(** {1 b-transformation} *)

val b_transform : t -> int -> unit
(** [b_transform t i] swaps node [i] with its last son [j]:
    [father j <- father i; father i <- j] (Theorem 2.1). Decreases
    [power i] by one and increases [power j] by one while preserving the
    open-cube structure.
    @raise Invalid_argument if [i] has no son. *)

(** {1 Queries} *)

val edges : t -> (int * int) list
(** All [(son, father)] edges, son-ascending. *)

val branch : t -> int -> int list
(** Path from a node up to the root, inclusive.
    @raise Failure on a cycle (corrupted state). *)

val depth : t -> int -> int
(** [List.length (branch t i) - 1]. *)

val leaves : t -> int list

val branch_stats : t -> int -> int * int
(** [(r, n1)] for the branch from the node to the root: its length [r] and
    the number [n1] of nodes on it that are {e not} last sons — the
    quantities of Prop. 2.3, which asserts [r <= pmax - n1]. *)

(** {1 Validation} *)

val check : t -> (unit, string) result
(** Full structural check from the recursive definition: every d-group has
    exactly one outward edge and it links the roots of its two halves.
    Sound and complete (also rejects cycles). A success re-certifies the
    closed-form son reconstruction. *)

val is_valid : t -> bool

(** {1 Rendering} *)

val render : ?label:(int -> string) -> t -> string
(** ASCII tree, one node per line, sons indented under their father (highest
    power first, matching the paper's left-to-right drawings). By default
    nodes print 1-based to ease comparison with the paper's figures. *)

val to_dot : ?label:(int -> string) -> t -> string
(** Graphviz rendering of the father edges. *)

val pp : Format.formatter -> t -> unit

(** {1 Hypercube view}

    The open-cube is a spanning tree of the p-hypercube (Figure 3); the
    graph-level helpers share its id arithmetic and live here — this
    subsumes the former [Hypercube] module. *)
module Hypercube : sig
  val order : p:int -> int
  (** [2^p]. *)

  val neighbors : p:int -> int -> int list
  (** The [p] neighbors of a node, ascending. *)

  val edges : p:int -> (int * int) list
  (** Undirected edge set as [(lo, hi)] pairs, lexicographic. *)

  val is_edge : int -> int -> bool
  (** True iff the ids differ in exactly one bit. *)

  val hamming : int -> int -> int
  (** Hamming distance between ids (graph distance in the hypercube). *)
end
