(** The shipped open-cube core as an explicit state machine, for
    exhaustive exploration.

    A state is the core's flat Section 3 image
    ({!Ocube_mutex.Opencube_algo.Make.export}), the sorted bag of
    in-flight messages ({!Bag}), and per node the critical-section
    entries it still wants. The image is kept split into its nodes
    ({!Ocube_mutex.Opencube_algo.Image.nodes}): each distinct node is
    stored once per process under a small id, and a state holds the ids.

    A successor is computed by loading the state into
    [Opencube_algo.Make (Bag)] (fault tolerance off) and running the
    core's own handler: a wish is [request_cs], an exit [release_cs], a
    delivery the core's receive handler on one message taken from the
    bag (channels are not FIFO: any in-flight message may go next). No
    Section 3 rule is restated here. A handler is one node's step: it
    reads and writes only that node, so each distinct pair of operation
    and node runs through the core once, and every other state with the
    same pair reuses its effect. A run that changes another node raises.

    Faults follow the paper's Section 5 outcome, applied to the image: a
    quiescent, unreferenced, non-root node crashes and its sons reattach
    to its father in the same step ({!crashable}). *)

type state = private {
  nodes : int array;
      (** per node, the id of its block and queue in a process-wide table
          ({!image} rebuilds the core's image) *)
  in_flight : int;  (** the core's in-flight token tally (image word 0) *)
  env : int array;
      (** per node: critical-section entries still wanted, [-1] once
          crashed *)
  bag : int list;  (** in-flight messages, packed and sorted ({!Bag}) *)
}

val image : state -> int array
(** The core's image of the state, as
    {!Ocube_mutex.Opencube_algo.Make.export} wrote it (a fresh array). *)

val of_image : int array -> env:int array -> bag:int list -> state
(** The state with this image, environment and (sorted) bag. *)

(** A transition, for diagnostics and counterexample traces. *)
type transition =
  | Wish of int
  | Exit of int
  | Deliver of int  (** a packed message ({!Bag}) *)
  | Crash of int

(** Which dynamics to explore. [Duplicating_link] is a seeded bug, in the
    runtime rather than the protocol: a token delivered across the cube's
    top dimension ([dist src dst = p]) is also left in the bag, so it
    arrives twice. It depends on node ids only through [dist], so the
    symmetry quotient stays sound for it; the checker's own regression
    tests use it to show that every engine still finds violations. *)
type variant = Faithful | Duplicating_link

val initial : p:int -> wishes:int -> state
(** The core's initial open cube (token at node 0) with [wishes]
    critical-section entries per node; [p <= 10], [wishes < 65536]. *)

val num_nodes : state -> int

val dead_count : state -> int

val iter_transitions :
  ?max_faults:int ->
  ?variant:variant ->
  state ->
  (transition -> state -> unit) ->
  int
(** Hand every enabled transition and its successor to the callback and
    return how many there were ([0]: the state is terminal). A node
    wishes only while idle; identical in-flight copies are delivered once.
    With [max_faults > 0] (default [0]), {!Crash} transitions are enabled
    while fewer than [max_faults] nodes are dead. *)

val transitions :
  ?max_faults:int -> ?variant:variant -> state -> (transition * state) list
(** {!iter_transitions} as a list, in the same order. *)

val crashable : state -> int -> bool
(** Whether a {!Crash} of node [i] is enabled (given the fault budget):
    alive, not the root, holding nothing (no token, CS, wish, queue,
    mandate or loan), and named by no message, queue entry, mandate,
    loan or other node's lender. Its crash can then only cut the tree,
    and no reference to a dead node can form again. *)

val check_invariants : state -> (unit, string) result
(** The core's invariant verdict read off the state
    ({!Ocube_mutex.Opencube_algo.Image.invariant_check}), then: a node in
    CS holds the token; an idle node's queue is empty; exactly one token,
    held or in the bag; message ids in range; nothing live names a dead
    node; a dead node is at rest. *)

val check_terminal : state -> (unit, string) result
(** A terminal state has every wish served, nobody asking or in CS, an
    empty bag, the token resting at the root with itself as lender, and a
    father array that passes the core's [check_opencube] (with crashes:
    one live root that every live node reaches). *)

val encode : state -> string
(** Canonical visited-set key, a varint per field (node ids, not node
    words): [encode a = encode b] iff [a = b]. Keys name this process's
    node ids, so they are meaningful only in the process that made them. *)

val encode_len : state -> string * int
(** [encode] and the number of in-flight messages. *)

val decode : string -> state
(** Inverse of {!encode}. *)

val compare : state -> state -> int
(** A total order on states by content (the nodes' words, not their ids),
    the same in every run: [compare a b = 0] iff [a = b]. *)

val hash : state -> int
(** A hash of the content, the same in every run (non-negative). *)

val relabel : int array -> state -> state
(** Rename node [i] to [perm.(i)] everywhere (node slots, every id field
    of the image, the bag). Semantics-preserving only for a
    [dist]-preserving [perm] ({!Symmetry}). *)

val relabel_transition : int array -> transition -> transition

val pp : Format.formatter -> state -> unit
(** One line per node (the core's [describe]) and per message. *)

val pp_transition : Format.formatter -> transition -> unit
(** e.g. [wish 3], [deliver 0->2 req(2,2#0)], [crash 5]. *)
