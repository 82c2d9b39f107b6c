(** One telemetry recorder for both runtimes.

    A recorder owns a {!Metrics} registry and a {!Span} table and defines
    every request metric once: wishes, CS entries, messages by source,
    faults, recoveries, violations, abandoned requests, the per-request
    hop and wait histograms and the event-queue watermark. The simulator's
    runner and the process cluster's parent both drive it through the
    same taps, keyed by node and time, so the two runtimes report the same
    metric names and the same spans. Time is in simulated units; the
    cluster converts wall seconds with its tick.

    Besides the registry and the spans, the recorder keeps the running
    integral of "some node is inside its CS" time, from which each span's
    queueing/transit split is derived. Every tap is passive: it never
    influences the run it observes. *)

type t

val create : n:int -> t

val registry : t -> Metrics.t

val spans : t -> Span.t

val wish : t -> node:int -> time:float -> unit
(** The node issued a wish: count it and open its span.
    @raise Invalid_argument if the node already has an open span. *)

val enter : t -> node:int -> time:float -> unit
(** The node entered its CS: count it, fix its span's queueing/transit
    split and observe its wait (when it entered on a wish). *)

val exit : t -> node:int -> time:float -> unit
(** The node left its CS: close its span and observe the span's hops. *)

val send : t -> src:int -> origin:int -> unit
(** A message left [src]; [origin >= 0] charges it to that node's open
    span ({!Ocube_mutex.Types.Message.origin}). Allocates nothing. *)

val fault : t -> node:int -> time:float -> unit
(** The node died: its waiting request counts as abandoned, its span is
    closed uncompleted, and every other open span notes the fault. *)

val recover : t -> node:int -> unit

val violation : t -> node:int -> unit
(** A mutual-exclusion violation was observed at the node. *)

val pending_max : t -> float -> unit
(** Raise the event-queue depth watermark (carried by node 0). *)
