(** Per-layer metrics of a traced run. *)

val all : (string * string) list
(** Every per-layer metric, as [(name, unit)], in report order. *)

val report : absent:string list -> (string * float) list -> Common.metric list
(** The complete per-layer report. Metrics whose name starts with one of
    [absent] (layers this workload's operations never pass through) read
    0; any other metric missing from the values is an error. *)

type gc = { mutable minor_words : float; mutable majors : int }

val gc_zero : unit -> gc

val gc_count : gc -> (unit -> 'a) -> 'a
(** Run [f], adding its minor words and major collections to [gc]. *)

type steps = { mutable events : int; mutable pend_sum : float; mutable pend_max : int }

val steps_zero : unit -> steps

val count_steps : steps -> Ocube_sim.Engine.t -> unit
(** Count every event the engine fires and the queue depth after it. *)

val step_values : steps -> entries:int -> (string * float) list
(** [sim.events_per_op], [sim.pending_max], [sim.pending_mean]. *)
