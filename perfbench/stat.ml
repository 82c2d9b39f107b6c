(* Order statistics and span reductions shared by every workload. *)

let sorted_copy xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linearly interpolated quantile at rank (m-1)q of a sorted sample (the
   "inclusive" definition): exact at the sample points, defined for any
   m >= 1, and monotone in q. *)
let quantile_sorted a q =
  let m = Array.length a in
  if m = 0 then invalid_arg "Stat.quantile: empty sample";
  let r = q *. float_of_int (m - 1) in
  let i = int_of_float (Float.floor r) in
  if i >= m - 1 then a.(m - 1)
  else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile xs q = quantile_sorted (sorted_copy xs) q

(* Wall-clock figures come from the lower quartile of repeated identical
   work: contention on a shared host only ever slows a repetition down, so
   the fast end of the distribution is the repeatable one. *)
let lower_quartile xs = quantile xs 0.25

let median xs = quantile xs 0.5

(* Nearest-rank percentile of a sorted sample: always an observed value,
   so exact (virtual-time) samples give exact percentiles. *)
let percentile_sorted a q =
  let m = Array.length a in
  if m = 0 then invalid_arg "Stat.percentile: empty sample";
  let rank = int_of_float (Float.ceil (q *. float_of_int m)) in
  a.(max 0 (min (m - 1) (rank - 1)))

module Span = Ocube_obs.Span

(* Longest interval during which some wish was pending (opened, not yet
   entered or abandoned) and no node was inside its critical section.
   A sweep over the span boundaries; at equal times, entries and exits
   are applied before the interval is measured, so back-to-back hand-offs
   at one instant leave no gap. *)
let service_gap (spans : Span.span list) =
  let evs = ref [] in
  let add t dp dc = evs := (t, dp, dc) :: !evs in
  List.iter
    (fun (s : Span.span) ->
      match s.enter_time with
      | None ->
        add s.open_time 1 0;
        add s.close_time (-1) 0
      | Some e ->
        add s.open_time 1 0;
        add e (-1) 1;
        add s.close_time 0 (-1))
    spans;
  let evs =
    List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) !evs
    |> Array.of_list
  in
  let n = Array.length evs in
  let best = ref 0.0 in
  let pending = ref 0 and in_cs = ref 0 in
  let gap_start = ref nan in
  let i = ref 0 in
  while !i < n do
    let t, _, _ = evs.(!i) in
    (* apply every event at instant t *)
    while
      !i < n
      &&
      let t', _, _ = evs.(!i) in
      Float.equal t' t
    do
      let _, dp, dc = evs.(!i) in
      pending := !pending + dp;
      in_cs := !in_cs + dc;
      incr i
    done;
    let idle = !pending > 0 && !in_cs = 0 in
    if idle && Float.is_nan !gap_start then gap_start := t
    else if (not idle) && not (Float.is_nan !gap_start) then begin
      best := Float.max !best (t -. !gap_start);
      gap_start := nan
    end
  done;
  !best

(* Share of the wait spent queueing behind other critical sections. *)
let queueing_share (spans : Span.span list) =
  let q, w =
    List.fold_left
      (fun (q, w) (s : Span.span) ->
        if s.completed then (q +. s.queueing, w +. Span.wait s) else (q, w))
      (0.0, 0.0) spans
  in
  if w > 0.0 then q /. w else 0.0
