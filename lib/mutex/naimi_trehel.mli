(** The Naimi–Trehel dynamic-tree mutual exclusion algorithm (ICDCS 1987).

    The dynamic baseline the paper compares against: each node keeps a
    probable-owner pointer ([father]) that is path-reversed on every request
    and a [next] pointer forming the distributed waiting queue. Average
    message complexity is O(log n) but the tree can degenerate, so the worst
    case per request is O(n) — the disadvantage the open-cube algorithm
    removes by bounding the tree's diameter. No fault tolerance. *)

open Types

(** The protocol core, abstracted over its runtime ({!Runtime.S}). *)
module Make (R : Runtime.S) : sig
  type t

  val create : net:R.t -> callbacks:callbacks -> n:int -> unit -> t
  (** Initially node 0 owns the token and every other node's probable owner
      chain points at it (a star). *)

  val request_cs : t -> node_id -> unit

  val release_cs : t -> node_id -> unit

  val instance : t -> instance

  (** {1 Introspection} *)

  val probable_owner : t -> node_id -> node_id option
  (** The node's [father] pointer; [None] when the node believes it is the
      last requester (tail of the distributed queue). *)

  val next_pointer : t -> node_id -> node_id option

  val token_holders : t -> node_id list

  val longest_owner_chain : t -> int
  (** Length of the longest probable-owner chain — the quantity whose
      unboundedness gives the O(n) worst case. *)

  val in_cs : t -> node_id -> bool

  val holder_count : t -> int
  (** Running tally of the token holders, kept by the one setter of the
      token flag; {!token_holders} is the O(N) scan it must agree with. *)

  val in_cs_count : t -> int
  (** Running tally of the nodes in their CS, kept the same way. *)

  val invariant_check : t -> (unit, string) result
  (** O(1) over the tallies (see {!Types.instance}). *)
end

(** {1 Simulator instantiation}

    [Make (Runtime.Sim)], re-exported under the historical interface. *)

include module type of Make (Runtime.Sim)
