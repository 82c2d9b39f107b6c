(** The general token- and tree-based scheme of Hélary, Mostefaoui and
    Raynal [1], of which the paper's algorithm is an instance.

    Every node reacts to a request with either {e transit} behaviour
    (forward the request — or give up the token — and adopt the requester
    as father) or {e proxy} behaviour (request the token on its own account
    — or lend it — on behalf of the requester). The rule choosing the
    behaviour is a parameter:

    - [Opencube_rule]: transit iff the request climbed through the last son
      ([dist i j = power i]) — the paper's algorithm (Section 3, fault-free);
    - [Raymond_rule]: transit iff the node holds the token — the paper's
      characterisation of Raymond's algorithm within the scheme;
    - [Always_transit]: permanently transit — the paper's characterisation
      of Naimi–Trehel's algorithm;
    - [Custom f]: any rule.

    This module implements the scheme without fault tolerance; it exists to
    cross-validate {!Opencube_algo} (same rule ⇒ identical message flow on
    identical schedules, checked by tests) and to run the behavioural
    comparison of the paper's Section 3.1 discussion. *)

open Types

type rule =
  | Opencube_rule
  | Raymond_rule
  | Always_transit
  | Custom of (self:node_id -> origin:node_id -> power:int -> [ `Transit | `Proxy ])

(** The protocol core, abstracted over its runtime ({!Runtime.S}). *)
module Make (R : Runtime.S) : sig
  type t

  val create :
    net:R.t ->
    callbacks:callbacks ->
    tree:node_id option array ->
    rule:rule ->
    unit ->
    t
  (** The token starts at the root of [tree]. For [Opencube_rule] the tree
      must be a valid open-cube.
      @raise Invalid_argument on size mismatch or invalid tree. *)

  val request_cs : t -> node_id -> unit

  val release_cs : t -> node_id -> unit

  val instance : t -> instance

  (** {1 Introspection} *)

  val father : t -> node_id -> node_id option

  val snapshot_tree : t -> node_id option array

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
