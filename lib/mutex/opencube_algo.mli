(** The paper's algorithm: token- and tree-based distributed mutual
    exclusion on an open-cube (Sections 3 and 5).

    Each node reacts to four protocol events — a local wish to enter the
    critical section, a local exit, receipt of a [request] message, receipt
    of a [token] message — exactly as in the paper's formal description
    (Section 3.3), with the [wait (not asking)] precondition encoded as an
    explicit per-node FIFO of deferred events.

    On every request a node behaves as {e transit} when the request climbed
    through its last son ([dist i j = power i]) and as {e proxy} otherwise;
    transit processing performs the first half of a b-transformation, and
    the father update at token receipt completes it, so the tree remains an
    open-cube at every quiescent instant (Section 4).

    When [fault_tolerance] is on, the Section 5 machinery is armed:

    - a lender watches its loan ([2δ+e] direct, [(pmax+1)δ+e] otherwise),
      enquires with the request's source on timeout, and regenerates the
      token when the enquiry concludes it is lost;
    - an asker first asks its father whether it still holds the request
      (a custody query), [max(D − 2.1δ, (pmax+2)δ)] after sending it,
      where [D = asker_patience·2·pmax·δ] is the paper's deadline (where
      [D] leaves no room for the query, it suspects at [D], as the paper
      does). A "held" answer grants a lease on the backlog ahead of the
      request, after which it asks again (DESIGN.md §5.15); silence or a
      "not held" answer starts [search_father]: phase [d]
      probes the [2^(d-1)] nodes at distance exactly [d]; [power >= d]
      answers ok, an asking node with smaller power answers try-later,
      anyone else stays silent; concurrent searches are arbitrated by phase
      order and, on ties, by node identity (smallest becomes father);
    - a recovered node rebuilds its volatile state from stable [{pmax, dist}]
      and reconnects via [search_father] from phase 1; anomalies
      ([power f < dist f i]) detected later are bounced back to the
      requester, which re-runs [search_father].

    Deviations from the paper (documented in DESIGN.md §5 and
    PROTOCOL.md): request identities [(source, seq)] de-duplicate
    regenerated requests; stale token grants are bounced back to their
    lender; token holders answer probes with a conclusive [Holder_ok];
    repeat searches for one mandate sweep from phase 1 with an exclusion
    list; a token census guards search-driven regeneration; and an asker
    asks its father whether it still holds the request before suspecting
    it, walking the wait-for chain from time to time to find waiting
    cycles. *)

open Types

(** Service order of a node's deferred-event queue. The paper only
    assumes fairness ("for example, the FIFO policy is fair");
    [Lifo] is deliberately unfair and exists for the fairness ablation
    (starvation tails under load). *)
type queue_policy = Fifo | Lifo | Random_order

type config = {
  p : int;  (** open-cube dimension: [n = 2^p] nodes *)
  fault_tolerance : bool;
      (** Arm timers, enquiries and search_father. When [false] the
          algorithm is exactly the Section 3 fault-free protocol. *)
  asker_patience : float;
      (** Multiplier on the paper's [2·pmax·δ] asker timeout: the
          deadline by which an asker whose father went silent starts
          search_father. The paper's value (1.0) is a lower bound. Before
          suspecting, the asker asks its father whether it still holds
          the request (a custody query, DESIGN.md §5); a "held" answer
          postpones the search, and a wait-for probe along the chain of
          holders detects waiting cycles, so queueing alone does not
          trigger one. Larger values cut custody queries at the cost of
          proportionally slower failure detection. *)
  census_rounds : int;
      (** Hardening beyond the paper: how many token-census confirmation
          rounds a searcher runs before regenerating the token when every
          phase of [search_father] failed. [0] reproduces the paper's
          immediate regeneration (unsafe in rootless transients); the
          default is [2] (see DESIGN.md §5). *)
  queue_policy : queue_policy;
      (** Waiting-queue service order; default [Fifo]. *)
}

val default_config : p:int -> config
(** Fault tolerance on, patience 1.0, 2 census rounds, FIFO. The
    critical-section estimate [e] in the lender's timeouts (1.0) and the
    per-node window of remembered request ids (32) are fixed. *)

(** Counters accumulated since creation. The fields are read-only outside
    this module; {!Make.stats} returns a copy. *)
type stats = private {
  mutable token_regenerations : int;
  mutable searches_started : int;
  mutable search_nodes_tested : int;  (** total probes sent by search_father *)
  mutable enquiries_sent : int;
  mutable anomalies_detected : int;
  mutable duplicate_requests_dropped : int;
  mutable mandates_voided : int;
      (** stale proxy mandates cancelled on a [Void] from the source *)
  mutable stale_tokens_bounced : int;
  mutable unexpected_tokens : int;
  mutable tokens_destroyed : int;
      (** duplicate tokens swallowed by a node that already held one *)
  mutable defensive_drops : int;
  mutable custody_queries : int;
      (** custody queries an asker sent its father before suspecting it *)
  mutable custody_confirmed : int;
      (** "held" answers that postponed a father search *)
  mutable probe_walks : int;
      (** wait-for probe walks started by askers after a "held" answer *)
  mutable cycles_detected : int;
      (** walks that came back to their initiator: waiting cycles found *)
}

(** The protocol core, abstracted over its runtime ({!Runtime.S}). All
    timeouts are derived from [R.delta] exactly as in the simulator, so
    the same automaton runs unchanged under real processes
    ([Ocube_proc.Proc_runtime]). *)
module Make (R : Runtime.S) : sig
  type t

  val create : net:R.t -> callbacks:callbacks -> config:config -> t
  (** Builds the initial open-cube (node 0 root, holding the token), installs
      the message handlers of all [2^p] nodes on [net] and returns the
      instance.
      @raise Invalid_argument if [R.size net <> 2^p]. *)

  val request_cs : t -> node_id -> unit
  (** The node wishes to enter its critical section. Wishes issued while the
      node is busy are queued; issuing a wish on a failed node is ignored. *)

  val release_cs : t -> node_id -> unit
  (** The node exits its critical section; gives the token back to its lender
      if it borrowed it.
      @raise Invalid_argument if the node is not in its critical section. *)

  val on_recovered : t -> node_id -> unit
  (** Reset the node's volatile state after {!Types.Net.recover} and start the
      reconnection protocol (search_father from phase 1). *)

  val instance : t -> instance
  (** Adapt to the generic runner interface. *)

  (** {1 Introspection (tests, experiments)} *)

  val father : t -> node_id -> node_id option

  val snapshot_tree : t -> node_id option array

  val power : t -> node_id -> int

  val token_holders : t -> node_id list

  val is_asking : t -> node_id -> bool

  val in_cs : t -> node_id -> bool

  val queue_length : t -> node_id -> int

  val searching : t -> node_id -> bool

  val describe : t -> node_id -> string
  (** One-line state dump of a node, for debugging embeddings. *)

  val stats : t -> stats
  (** A copy of the counters: later events do not change it. *)

  val holder_count : t -> int
  (** Running tally of the nodes whose token flag is set, kept by the one
      setter of the flag. Unlike {!token_holders} it counts a failed node's
      frozen flag. *)

  val in_cs_count : t -> int
  (** Running tally of the nodes whose in-CS flag is set. *)

  val invariant_check : t -> (unit, string) result
  (** Fault-free invariants, read off the tallies in O(1) without
      allocating on success: at most one node in its CS, at most one token
      holder (the error names them), and exactly one token, held or in
      flight. It does not check the father pointers; {!check_opencube} does,
      at quiescence. A failed node's frozen flags count, so the result is
      meaningful only while no node has failed. *)

  val check_opencube : t -> (unit, string) result
  (** Full open-cube structural check of the current father array. Only
      meaningful at quiescent instants of fault-free runs (the tree is
      legitimately "open" while a request or token is in flight). *)
end

(** {1 Simulator instantiation}

    [Make (Runtime.Sim)], re-exported under the historical interface. *)

include module type of Make (Runtime.Sim)
