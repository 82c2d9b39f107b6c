(** Centralized-coordinator mutual exclusion (trivial baseline).

    Node 0 arbitrates: a requester sends [Request], the coordinator grants
    the token in FIFO order, the holder sends [Release] when done. Exactly 3
    messages per remote request (0 when the coordinator itself requests an
    idle token) — constant but with a hot spot, no locality and a single
    point of failure. Included to anchor the comparison experiments. *)

open Types

(** The protocol core, abstracted over its runtime ({!Runtime.S}). *)
module Make (R : Runtime.S) : sig
  type t

  val create : net:R.t -> callbacks:callbacks -> n:int -> unit -> t

  val request_cs : t -> node_id -> unit

  val release_cs : t -> node_id -> unit

  val instance : t -> instance

  val queue_length : t -> int
  (** Pending requests at the coordinator. *)

  val in_cs : t -> node_id -> bool

  val in_cs_count : t -> int
  (** Running tally of the nodes in their CS, kept by the one setter of
      the in-CS flag. *)

  val invariant_check : t -> (unit, string) result
  (** O(1) over the tallies (see {!Types.instance}). *)
end

(** {1 Simulator instantiation}

    [Make (Runtime.Sim)], re-exported under the historical interface. *)

include module type of Make (Runtime.Sim)
