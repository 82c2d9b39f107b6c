(** Raymond's tree-based mutual exclusion algorithm (TOCS 1989).

    The static-tree baseline the paper compares against: nodes sit on a
    fixed undirected spanning tree; each node keeps a [holder] pointer
    towards the token, a FIFO of neighbours wanting the token, and an
    [asked] flag that coalesces requests. The worst-case message complexity
    per request is O(diameter), but the structure is static: work done by a
    node depends on its tree degree, not on how often it enters its critical
    section — the first disadvantage the paper's introduction attributes to
    the static approach. No fault tolerance. *)

open Types

(** The protocol core, abstracted over its runtime ({!Runtime.S}). *)
module Make (R : Runtime.S) : sig
  type t

  val create :
    net:R.t -> callbacks:callbacks -> tree:node_id option array -> unit -> t

  val request_cs : t -> node_id -> unit

  val release_cs : t -> node_id -> unit

  val instance : t -> instance

  val holder : t -> node_id -> node_id

  val token_holders : t -> node_id list

  val queue_length : t -> node_id -> int

  val in_cs : t -> node_id -> bool

  val holder_count : t -> int

  val in_cs_count : t -> int

  val invariant_check : t -> (unit, string) result
end

(** {1 Simulator instantiation}

    [Make (Runtime.Sim)], re-exported under the historical interface. *)

type t

val create :
  net:Net.t -> callbacks:callbacks -> tree:node_id option array -> unit -> t
(** [tree] is a father array (see {!Ocube_topology.Static_tree}); the
    undirected tree it induces is Raymond's structure. The token starts at
    the tree root (the fatherless node).
    @raise Invalid_argument if the array size differs from the network's or
    the array is not a tree. *)

val request_cs : t -> node_id -> unit

val release_cs : t -> node_id -> unit

val instance : t -> instance

(** {1 Introspection} *)

val holder : t -> node_id -> node_id
(** Current holder pointer ([i] itself when the node believes it has the
    token side of the tree). *)

val token_holders : t -> node_id list

val queue_length : t -> node_id -> int

val in_cs : t -> node_id -> bool

val holder_count : t -> int
(** Running tally of the self-holders ([holder t i = i]), kept by the one
    setter of [holder]; {!token_holders} is the O(N) scan it must agree
    with. *)

val in_cs_count : t -> int
(** Running tally of the nodes in their CS, kept the same way. *)

val invariant_check : t -> (unit, string) result
(** O(1) over the tallies (see {!Types.instance}). *)
