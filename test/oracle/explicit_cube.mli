(** The open cube as explicit records: an [int option] father array plus
    a sons-adjacency index and a cached root. It is the reference oracle
    for {!Ocube_topology.Opencube}, whose implicit Bigarray form
    recomputes sons by id arithmetic; the parity tests drive both through
    the same b-transform chains and raw pointer surgery and compare every
    accessor. *)

type t

val build : p:int -> t
(** The initial [2^p]-node cube: [father i = i land (i-1)]. *)

val father : t -> int -> int option

val set_father : t -> int -> int option -> unit
(** Raw pointer update, maintaining the adjacency index. *)

val root : t -> int
(** Lowest-id node with no father. *)

val power : t -> int -> int
(** [dist i (father i) - 1], or [pmax] for a root. *)

val sons : t -> int -> int list
(** Nodes whose father is the given node, id-ascending. A self-loop
    counts as a son of its own node. *)

val last_son : t -> int -> int option
(** The smallest-id son at distance [power i]. *)

val b_transform : t -> int -> unit
(** Theorem 2.1's swap with the last son.
    @raise Invalid_argument if the node has no son. *)

val leaves : t -> int list

val is_valid : t -> bool
(** {!Ocube_topology.Opencube.check} on the same father array. *)
