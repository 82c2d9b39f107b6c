(** Request spans: one per critical-section wish, opened at wish arrival
    and closed at CS exit (or at the owning node's failure).

    {!Recorder} drives the lifecycle and supplies two clocks: the time
    and the running integral of "some node is inside its CS" time.
    The busy-integral difference over the waiting interval is the span's
    {e queueing} phase (blocked behind other critical sections); the rest
    of the wait is the {e transit} phase (requests climbing, token
    travelling); after entry the {e service} phase runs to close. Hops
    are charged via the network send tap using
    {!Ocube_mutex.Types.Message.origin} — one outstanding wish per node
    makes the attribution unambiguous. *)

type span = {
  node : int;
  index : int;  (** global open order, 0-based *)
  open_time : float;
  enter_time : float option;  (** [None]: abandoned before entering *)
  close_time : float;
  hops : int;  (** messages attributed to this request *)
  queueing : float;
  transit : float;
  service : float;
  faults : int;  (** fault/recovery events that overlapped the span *)
  completed : bool;  (** entered and exited the CS normally *)
}

type t

val create : n:int -> t

val size : t -> int

val open_span : t -> node:int -> time:float -> busy:float -> unit
(** Open the node's span. [busy] is the busy-time integral at [time].
    @raise Invalid_argument if the node already has an open span. *)

val note_hop : t -> node:int -> unit
(** Charge one message to the node's open span (no-op when none is
    open — e.g. fault-machinery traffic for an already-served request). *)

val enter : t -> node:int -> time:float -> busy:float -> unit
(** The node entered its CS: fixes the queueing/transit split. No-op when
    no span is open (entries triggered outside the wish flow). *)

val close : t -> node:int -> time:float -> span option
(** Normal CS exit: the span moves to the closed list and is returned
    (the recorder feeds its hop count to the hop histogram). [None]
    when no span is open. @raise Invalid_argument if the span never
    entered. *)

val abandon : t -> node:int -> time:float -> busy:float -> span option
(** The owning node failed (waiting or inside its CS): close the span
    with [completed = false]. [None] when no span is open. *)

val fault_tick : t -> unit
(** A fault or recovery happened: bump the overlap counter of every open
    span. *)

val open_count : t -> int

val closed_count : t -> int

val closed : t -> span list
(** Closed spans in close order. *)

val clear : t -> unit

(** {1 Derived quantities} *)

val wait : span -> float
(** [queueing + transit]. *)

val duration : span -> float
(** [close_time - open_time]. *)
