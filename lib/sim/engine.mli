(** Discrete-event simulation engine.

    Maintains a virtual clock and a queue of pending events. Events
    scheduled for the same instant fire in scheduling order (a strictly
    increasing sequence number breaks ties), which makes whole-system runs
    deterministic for a given seed.

    The queue is a binary heap of packed event records kept in a
    freelist arena ({!Arena}), ordered by the global [(time, seq)] key.

    The engine knows nothing about networks or protocols; higher layers
    ({!Ocube_net.Network}, the mutual-exclusion runner) build on [schedule]
    and [cancel]. The hot paths can avoid closures entirely: register a
    dispatch class once and schedule packed events carrying two int
    payload words ({!register_class}, {!schedule_packed}). *)

type t

type timer_id
(** Handle for a scheduled event, used to cancel it. *)

val create : unit -> t

val now : t -> float
(** Current virtual time. Starts at [0.]. *)

val schedule : t -> delay:float -> (unit -> unit) -> timer_id
(** [schedule t ~delay f] fires [f] at time [now t +. delay].
    @raise Invalid_argument if [delay] is negative or not finite. *)

val schedule_at : t -> time:float -> (unit -> unit) -> timer_id
(** Absolute-time variant. [time] must be [>= now t]. *)

(** {1 Closure-free scheduling}

    The dominant event populations (message deliveries, protocol timers)
    are homogeneous: same handler, different small arguments. Registering
    the handler once and scheduling [(class, a, b)] triples keeps the hot
    path allocation-free — no thunk, no captured environment. *)

type class_id

val register_class : t -> (int -> int -> unit) -> class_id
(** Register a packed-event handler; it receives the two payload words of
    each fired event of this class. Registration order is part of the
    deterministic setup, so register classes at construction time. *)

val schedule_packed :
  t -> delay:float -> cls:class_id -> a:int -> b:int -> timer_id
(** Like {!schedule}, but fires [handler a b] for the registered class
    instead of a closure. Same validation and ordering as {!schedule}. *)

(** {1 Running} *)

val cancel : t -> timer_id -> unit
(** Cancel a pending event in O(1). Cancelling an already-fired or
    already-cancelled event is a no-op (generation-stamped ids make stale
    handles harmless). *)

val pending : t -> int
(** Exact number of live pending events: scheduled, not yet fired, not
    cancelled. Cancelled events leave the count immediately. *)

val step : t -> bool
(** Execute the earliest pending event. Returns [false] when the queue is
    empty (and leaves the clock untouched). *)

val run : ?until:float -> ?max_steps:int -> t -> unit
(** Run events in order until the queue is empty, the clock would pass
    [until], or [max_steps] events have executed. Events scheduled exactly at
    [until] still fire. *)

val quiescent : t -> bool
(** [true] when no live (non-cancelled) event remains. *)

val set_step_hook : t -> (unit -> unit) -> unit
(** Install the {e primary} callback invoked after every executed event
    (in both {!step} and {!run}), with the clock already advanced. At most
    one primary hook is installed; a second call replaces the first.
    Runtime invariant oracles hang off this: a hook that raises aborts the
    run at the exact event that broke the invariant. *)

val clear_step_hook : t -> unit

type hook_id

val add_step_hook : t -> (unit -> unit) -> hook_id
(** Register an additional step observer alongside the primary hook (the
    metrics layer samples watermark gauges this way without displacing an
    installed oracle). Hooks fire in registration order, which keeps
    multi-observer runs deterministic. *)

val remove_step_hook : t -> hook_id -> unit
(** Unregister an observer. Removing twice is a no-op. *)
