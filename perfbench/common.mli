(** Plumbing shared by the workloads. *)

val clock : unit -> float

val settle : unit -> unit
(** [Gc.full_major]: called outside every timed region. *)

val timed : (unit -> 'a) -> 'a * float
(** Settle the heap, then time [f]. *)

val reference : unit -> unit
(** A fixed ~10 ms computation independent of the program, run before
    every timed part to measure the shared host's current speed. *)

val reference_nominal : float
(** {!reference}'s uncontended time on the benchmark host, in seconds. *)

type sample = { t : float;  (** the part's wall time *) ref_t : float  (** {!reference} just before *) }

val timed_part : (unit -> 'a) -> 'a * sample
(** Settle the heap, time {!reference}, then time [f]. *)

val corrected : sample -> float
(** [t / ref_t * reference_nominal]: the part's time at nominal host speed. *)

val raw_total : sample array -> float

val corrected_total : sample array -> float

val corrected_sum : sample array list -> float
(** Sum over parts of the median over repetitions of the corrected part
    time ([parts.(r).(j)] is part [j] of repetition [r]). *)

val print_corrected : string -> sample array list -> unit
(** Print each repetition's part times with their reference times, the
    {!corrected_sum} used and the raw {!fastest_sum}. *)

val peak_rss_mb : unit -> float

type metric = { name : string; unit_ : string; value : float }

val m : string -> string -> float -> metric

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

val repeat :
  seconds:float -> min_reps:int -> (int -> 'a) -> ('a * float) list
(** Run [f 0], [f 1], ... each timed on its own, until [seconds] have
    elapsed and at least [min_reps] ran. *)

val fastest_sum : float array list -> float
(** [fastest_sum parts]: every repetition is timed in the same parts
    ([parts.(r).(j)], part [j] of repetition [r]); the result is the sum
    over parts of each part's fastest repetition. *)

val print_reps : string -> float array list -> unit
(** Print each repetition's part times and the {!fastest_sum} used. *)

val per : float -> int -> float
(** [per x n = x / n], [0.] when [n = 0]. *)

val ns_per : float -> int -> float
(** Seconds over a count, in nanoseconds. *)

val us_per : float -> int -> float

val pct_over : float -> float -> float
(** [(a - b) / b] in percent. *)

val sub_seed : seed:int -> int -> int
