(** The Ricart–Agrawala permission-based algorithm (CACM 1981).

    The canonical representative of the *permission-based* class in
    Raynal's taxonomy (the paper's reference [5]), included to contrast the
    token-based family: a requester timestamps its request with a Lamport
    clock, broadcasts it, and enters once all N-1 peers have replied;
    conflicting requests are ordered by (clock, id). Always exactly
    2(N-1) messages per critical section. No fault tolerance. *)

open Types

(** The protocol core, abstracted over its runtime ({!Runtime.S}). *)
module Make (R : Runtime.S) : sig
  type t

  val create : net:R.t -> callbacks:callbacks -> n:int -> unit -> t

  val request_cs : t -> node_id -> unit

  val release_cs : t -> node_id -> unit

  val instance : t -> instance

  val deferred : t -> node_id -> node_id list

  val in_cs : t -> node_id -> bool

  val in_cs_count : t -> int

  val invariant_check : t -> (unit, string) result
end

(** {1 Simulator instantiation}

    [Make (Runtime.Sim)], re-exported under the historical interface. *)

type t

val create : net:Net.t -> callbacks:callbacks -> n:int -> unit -> t

val request_cs : t -> node_id -> unit

val release_cs : t -> node_id -> unit

val instance : t -> instance

(** {1 Introspection} *)

val deferred : t -> node_id -> node_id list
(** Peers whose replies the node is withholding until it exits. *)

val in_cs : t -> node_id -> bool

val in_cs_count : t -> int
(** Running tally of the nodes in their CS, kept by the one setter of
    the in-CS flag. *)

val invariant_check : t -> (unit, string) result
(** O(1) over the tallies (see {!Types.instance}). *)
