(** The runtime abstraction the protocol cores are written against.

    Every algorithm in [lib/mutex] is a functor over {!S}: the only
    effects a protocol core may perform are the ones listed here —
    sending a message, installing a per-node or default receive handler,
    arming and cancelling a timer, and reading the local clock and
    topology size. Three instantiations exist:

    - {!Sim}: the deterministic discrete-event simulator
      ({!Types.Net} over {!Ocube_sim.Engine}), used by every
      experiment and the fuzzer;
    - [Ocube_proc.Proc_runtime]: one forked Unix process per node,
      length-prefixed packed messages over socketpairs, wall-clock
      timers, and real [SIGKILL] crashes ([ocmutex cluster]);
    - [Ocube_model.Bag]: the model checker's runtime, an in-memory bag
      of in-flight messages that the explorer delivers in every order,
      a clock that stands still and a [set_timer] that refuses to arm
      (the open-cube core with fault tolerance off, [ocmutex verify]).

    The same handler modules compile into all three with zero
    mode-conditional logic — the acceptance bar of DESIGN.md §15. *)

module type S = sig
  type t

  type timer
  (** Handle for a pending timer, used to cancel it. *)

  val size : t -> int
  (** Number of nodes in the system. *)

  val delta : t -> float
  (** Upper bound on message transfer delay (the paper's network
      assumption), in runtime time units. All protocol timeouts are
      derived from this. *)

  val now : t -> float
  (** Current time in runtime time units: virtual time in the
      simulator, scaled wall-clock time in the process runtime. Only
      meaningful for measuring intervals local to one node. *)

  val send : t -> src:int -> dst:int -> Types.Message.t -> unit
  (** Asynchronous, reliable-unless-crashed message send. Delivery
      order between distinct pairs is unconstrained; a message to a
      crashed node is silently dropped. *)

  val set_handler : t -> int -> (src:int -> Types.Message.t -> unit) -> unit
  (** Install node [i]'s receive handler. *)

  val set_default_handler :
    t -> (dst:int -> src:int -> Types.Message.t -> unit) -> unit
  (** Handler for nodes without a dedicated one — lets an algorithm
      install a single dispatch function for all nodes. *)

  val set_drop_handler : t -> (dst:int -> Types.Message.t -> unit) -> unit
  (** Observer invoked when a message is dropped because its
      destination crashed. Used by the open-cube core to account for
      tokens lost in flight; a runtime that cannot observe drops (real
      processes — the destination is simply gone) may never invoke it,
      which the protocol must tolerate (it does: the census machinery
      covers lost tokens). *)

  val set_timer : t -> node:int -> delay:float -> (unit -> unit) -> timer
  (** Arm a timer on behalf of [node], firing after [delay] time
      units unless the node crashes first. *)

  val cancel_timer : t -> timer -> unit
  (** Cancelling a fired or cancelled timer is a no-op. *)

  val is_failed : t -> int -> bool
  (** Whether node [i] is currently crashed, {e as observable by the
      caller}: global ground truth in the simulator; in the process
      runtime each node can only be asked about itself. Protocol cores
      use it only for self-checks and oracle introspection. *)

  val incarnation : t -> int -> int
  (** Monotone per-node restart counter (0 before any crash). The
      open-cube core salts regenerated sequence numbers with it. *)
end

(** The discrete-event-simulator runtime: {!Types.Net} itself, plus
    virtual-time [now]. The type equalities are transparent so code
    written against [Net.t] keeps working unchanged. *)
module Sim : S with type t = Types.Net.t and type timer = Types.Net.timer
