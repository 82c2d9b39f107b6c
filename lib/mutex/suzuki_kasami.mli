(** The Suzuki–Kasami broadcast token algorithm (TOCS 1985).

    The classic non-tree token algorithm, included to widen the comparison
    beyond the paper's tree-based family: a requester broadcasts its
    request (N-1 messages); the token carries the queue of waiting nodes
    and the array [LN] of last-served sequence numbers, so the holder can
    tell fresh requests from stale ones. Exactly N messages per contested
    critical section (N-1 requests + 1 token transfer), 0 when the holder
    re-enters. No fault tolerance. *)

open Types

(** The protocol core, abstracted over its runtime ({!Runtime.S}). *)
module Make (R : Runtime.S) : sig
  type t

  val create : net:R.t -> callbacks:callbacks -> n:int -> unit -> t
  (** Node 0 holds the token initially. *)

  val request_cs : t -> node_id -> unit

  val release_cs : t -> node_id -> unit

  val instance : t -> instance

  (** {1 Introspection} *)

  val token_holders : t -> node_id list

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
