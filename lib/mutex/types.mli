(** Protocol message types shared by all mutual-exclusion algorithms.

    One payload union covers every algorithm in the repository so that they
    all run over the same {!Ocube_net.Network} instantiation and share the
    per-category message accounting. Each algorithm uses its own subset:

    - open-cube (paper, Sections 3 and 5): [Request], [Token], [Enquiry],
      [Enquiry_answer], [Test], [Test_answer], [Anomaly], [Census],
      [Census_reply], [Custody], [Custody_answer];
    - Raymond: [Request] (origin unused), [Token];
    - Naimi–Trehel: [Request], [Token];
    - centralized: [Request], [Token], [Release];
    - Suzuki–Kasami: [Sk_request], [Sk_privilege];
    - Ricart–Agrawala: [Ra_request], [Ra_reply]. *)

type node_id = int

type request_id = { source : node_id; seq : int }
(** Globally unique identity of one critical-section request: the node whose
    wish triggered it and a per-node sequence number. Carried by requests and
    token grants so the fault-tolerance layer can identify the source [s]
    (paper, Section 5, "Root") and de-duplicate regenerated requests. *)

val pp_request_id : Format.formatter -> request_id -> unit

(** Replies to the root's enquiry (paper, Section 5, "Root"). *)
type enquiry_answer =
  | In_cs  (** "wait, I'm still in the critical section" *)
  | Token_sent  (** "I've already sent back the token" *)
  | Token_lost  (** source never received the token: a node on the path died *)

(** Replies to a [search_father] probe (paper, Section 5). *)
type test_answer =
  | Father_ok  (** probed node satisfies [power >= d]: it becomes the father *)
  | Holder_ok
      (** probed node holds the token: always a valid attach point, takes
          precedence over any [Father_ok] (hardening, DESIGN.md Â§5) *)
  | Try_later  (** probed node is asking with [power < d]; retest later *)

(** Replies to a pre-regeneration token census (DESIGN.md §5). *)
type census_reply =
  | Token_exists  (** replier holds the token, is in CS, or has an
                      outstanding loan: do not regenerate *)
  | Census_defer  (** replier is also censusing and has a smaller id: it
                      wins the race to regenerate *)

module Message : sig
  type t =
    | Request of { origin : node_id; rid : request_id }
        (** [origin] is the node on whose account the request climbs (the
            paper's [request(j)]); [rid] identifies the underlying wish. *)
    | Token of { lender : node_id option; rid : request_id option }
        (** The token. [lender = None] is the paper's [token(nil)] (nothing
            to give back); [rid] is the request being satisfied, [None] for a
            plain return after a loan. *)
    | Enquiry of { rid : request_id }
    | Enquiry_answer of { rid : request_id; answer : enquiry_answer }
    | Test of { d : int }  (** search_father probe for phase [d] *)
    | Test_answer of { d : int; answer : test_answer }
    | Anomaly of { rid : request_id }
        (** Structure violation detected while processing [rid]; tells the
            origin to re-run [search_father]. *)
    | Void of { rid : request_id }
        (** Sent by [rid.source] when a stale copy of its own, already
            served request reaches it (only possible with the fault
            machinery armed: regenerated requests and father searches can
            outlive the wish they carry). Tells the sending proxy that its
            mandate for [rid] is void, so it stops asking instead of
            retrying the dead request forever (DESIGN.md §5). Cascades down
            the mandate chain. *)
    | Census of { round : int }
        (** Hardening beyond the paper (DESIGN.md §5): before a searcher
            whose every phase failed regenerates the token, it asks every
            node whether the token still exists. *)
    | Census_reply of { round : int; reply : census_reply }
    | Custody of { rid : request_id }
        (** Hardening beyond the paper (DESIGN.md §5): before suspecting
            its father, an asker asks it whether it still holds [rid] as
            its mandate or in its wait queue. *)
    | Custody_answer of { rid : request_id; held : bool }
    | Release
        (** Centralized baseline only: give the token back to the
            coordinator. *)
    | Sk_request of { origin : node_id; seq : int }
        (** Suzuki–Kasami: broadcast request with the requester's sequence
            number. *)
    | Sk_privilege of { queue : node_id list; ln : int array }
        (** Suzuki–Kasami: the token, carrying the waiting queue and the
            per-node count of the last served request. *)
    | Ra_request of { origin : node_id; clock : int }
        (** Ricart–Agrawala: timestamped permission request. *)
    | Ra_reply
        (** Ricart–Agrawala: permission granted. *)

  val pp : Format.formatter -> t -> unit

  val category_names : string array
  (** "request" | "token" | "enquiry" | "enquiry_answer" | "test"
      | "test_answer" | "anomaly" | "void" | "census" | "census_reply"
      | "custody" | "custody_answer" | "release" | "reply": the labels of
      the per-category message counters, each once. *)

  val category_index : t -> int
  (** The message's position in {!category_names}. The baselines'
      requests and tokens share the open cube's "request" and "token". *)

  val category : t -> string
  (** [category_names.(category_index m)]. *)

  val origin : t -> node_id
  (** The node on whose account this message travels: the request chain
      ([Request], [Sk_request], [Ra_request]), the token grant satisfying a
      request ([Token] with a rid), and the per-request fault machinery
      ([Enquiry]/[Anomaly]/[Void]/[Custody] and answers). [-1] for messages
      that serve the system rather than one wish (loan returns, search
      probes, census, broadcast privileges, permission replies): an int,
      not an option, so the send tap that reads it allocates nothing. The
      observability layer charges each attributed message to the origin's
      open request span — a node has at most one outstanding wish, so the
      origin node identifies the span uniquely. *)

  val is_fault_overhead_category : string -> bool
  (** True for the categories (as returned by {!category}) that exist only
      because of the fault-tolerance machinery: enquiry, test probes,
      anomaly, void, census, custody query, and their answers. The single
      source of this classification; message counters keyed by category
      use it directly. *)

  val is_fault_overhead : t -> bool
  (** [is_fault_overhead_category (category m)]. *)
end

module Net : sig
  include module type of Ocube_net.Network.Make (Message)
end
(** The network transport all algorithms run on. *)

(** Callbacks from an algorithm instance to its environment (the runner). *)
type callbacks = {
  on_enter : node_id -> unit;
      (** The node has entered its critical section. *)
  on_exit : node_id -> unit;
      (** The node has left its critical section (called from release). *)
}

val null_callbacks : callbacks

(** A running algorithm instance, as seen by the generic runner. Every
    algorithm module provides a [create] returning one of these. *)
type instance = {
  algo_name : string;
  request_cs : node_id -> unit;
      (** The node wishes to enter its critical section. *)
  release_cs : node_id -> unit;
      (** The node leaves its critical section. *)
  on_recovered : node_id -> unit;
      (** Re-initialise a node's volatile state after {!Net.recover} and
          start its reconnection protocol (no-op for algorithms without
          fault tolerance). *)
  snapshot_tree : unit -> node_id option array option;
      (** Current father array for tree-based algorithms, [None] otherwise. *)
  token_holders : unit -> node_id list;
      (** Nodes currently holding a token ([[]] while it is in flight).
          An O(N) scan. *)
  invariant_check : unit -> (unit, string) result;
      (** The algorithm's fault-free invariants: at most one node in its
          CS, at most one token holder, and for token algorithms a token
          count of one, held or in flight. The fuzz oracle runs it after
          every event of a fault-free run, so it reads running tallies:
          O(1), and it allocates nothing when it returns [Ok ()]. *)
}

val holders_error : node_id list -> string
(** The [invariant_check] message for more than one token holder, naming
    them. *)

val token_verdict :
  in_cs:int ->
  held:int ->
  in_flight:int ->
  ('a -> node_id list) ->
  'a ->
  (unit, string) result
(** [token_verdict ~in_cs ~held ~in_flight token_holders t] is the
    [invariant_check] of a single-token algorithm from its running
    tallies: at most one node in CS, at most one holder (the error names
    [token_holders t], the only scan, made on that path alone), and
    [held + in_flight = 1]. Allocates nothing when it returns [Ok ()]. *)
