(** Order statistics and span reductions used by the benchmark. *)

val quantile : float list -> float -> float
(** [quantile xs q]: linear interpolation at rank [(m-1)q] of the sorted
    sample ("inclusive" quartiles). @raise Invalid_argument on [[]]. *)

val lower_quartile : float list -> float

val median : float list -> float

val sorted_copy : float list -> float array

val percentile_sorted : float array -> float -> float
(** Nearest-rank percentile of a sorted, non-empty sample. *)

val service_gap : Ocube_obs.Span.span list -> float
(** Longest interval with a wish pending and no node in its critical
    section, from closed request spans ([0.] when there is none). *)

val queueing_share : Ocube_obs.Span.span list -> float
(** Queueing time over total wait, summed over completed spans. *)
