(** Asynchronous message-passing network with fail-stop nodes.

    Implements the system model of the paper (Sections 1 and 5):

    - point-to-point channels between every pair of nodes;
    - channels are reliable while both ends are up: messages are neither
      lost nor corrupted;
    - communication is asynchronous — per-message delays are sampled from a
      configurable model, so channels need not be FIFO;
    - every delay is bounded by δ ({!delta}), the constant the
      fault-tolerance layer's timeouts are built from;
    - nodes may fail (fail-stop): a failed node performs no action, all
      in-transit messages towards it are lost, and its volatile state and
      pending timers are discarded. Recovery starts a fresh incarnation —
      messages and timers from a previous incarnation never fire.

    The functor is generic in the payload type so that each protocol defines
    its own message variant. *)

module type PAYLOAD = sig
  type t

  val category_names : string array
  (** Short, distinct labels of the per-category message counters
      ("request", "token", "test", ...). *)

  val category_index : t -> int
  (** The message's counter: an index into {!category_names}. The send
      path counts by this index, so it never hashes a label. *)
end

(** How per-message transit delays are sampled. All models are clamped to
    the bound carried alongside them. *)
type delay_model =
  | Constant of float  (** every message takes exactly this long *)
  | Uniform of { lo : float; hi : float }
      (** uniform in [lo, hi]; allows out-of-order delivery *)
  | Exponential of { mean : float; cap : float }
      (** exponential with the given mean, truncated at [cap] *)

val delay_bound : delay_model -> float
(** The δ of the model: [Constant d → d], [Uniform → hi],
    [Exponential → cap]. *)

module Make (P : PAYLOAD) : sig
  type t

  val create :
    engine:Ocube_sim.Engine.t ->
    rng:Ocube_sim.Rng.t ->
    n:int ->
    delay:delay_model ->
    unit ->
    t

  val engine : t -> Ocube_sim.Engine.t

  val size : t -> int

  val delta : t -> float
  (** Maximum message delay δ, known to every node (paper, Section 5). *)

  (** {1 Node wiring} *)

  val set_handler : t -> int -> (src:int -> P.t -> unit) -> unit
  (** Install the receive handler of a node. Every node must have a
      handler — per-node or the shared {!set_default_handler} — before
      the first delivery to it. *)

  val set_default_handler : t -> (dst:int -> src:int -> P.t -> unit) -> unit
  (** Install one receive handler shared by every node that has no
      per-node handler. Protocols whose dispatch is uniform in the node
      id use this instead of [2^p] per-node closures — at N≈1M the
      per-node closures alone cost tens of MB. A per-node handler, when
      present, takes precedence. At most one; a second call replaces the
      first. *)

  val set_drop_handler : t -> (dst:int -> P.t -> unit) -> unit
  (** Observe messages lost to failed destinations (protocol layers use
      this for token accounting). At most one global handler. *)

  val set_send_hook : t -> (src:int -> dst:int -> P.t -> unit) -> unit
  (** Passive observer invoked synchronously on every {!send}, before the
      delivery is scheduled (so it also sees messages later lost to a
      failed destination, mirroring {!sent_total}). The runner's
      telemetry recorder and structured record read sends through this.
      The hook must not send, fail or otherwise touch the simulation — it
      is a pure tap. At most one; a second call replaces the first (and
      so the runner's tap). *)

  (** {1 Communication} *)

  val send : t -> src:int -> dst:int -> P.t -> unit
  (** Sample a delay and schedule delivery. Sending from a failed node is a
      programming error ([Invalid_argument]): a fail-stop node takes no
      action. Sending {e to} a failed (or about-to-fail) node silently loses
      the message, as the model prescribes. [src = dst] is allowed and goes
      through the same delay pipeline. *)

  (** {1 Timers} *)

  type timer

  val set_timer : t -> node:int -> delay:float -> (unit -> unit) -> timer
  (** Schedule a local timeout on a node. The callback is dropped if the
      node has failed (or changed incarnation) by the time it fires. The
      timer is a packed engine event carrying the node and its
      incarnation, with the callback as its thunk: arming it allocates
      nothing beyond what the caller built. *)

  val cancel_timer : t -> timer -> unit

  (** {1 Failures} *)

  val fail : t -> int -> unit
  (** Fail-stop the node now. Idempotent. *)

  val recover : t -> int -> unit
  (** Bring a failed node back (new incarnation). The protocol layer is
      responsible for re-initialising its volatile state.
      @raise Invalid_argument if the node is not failed. *)

  val is_failed : t -> int -> bool

  val alive_nodes : t -> int list

  val incarnation : t -> int -> int
  (** Starts at 0; +1 on [fail], +1 again on [recover]. *)

  (** {1 Accounting} *)

  val sent_total : t -> int
  (** Messages sent (including ones later lost to failures). *)

  val delivered_total : t -> int

  val dropped_total : t -> int
  (** Messages lost because the destination failed. *)

  val sent_by_category : t -> (string * int) list
  (** Ascending by category name. *)

  val reset_counters : t -> unit
  (** Zero all counters (used to measure a window of a run, e.g. messages
      attributable to one failure). *)
end
