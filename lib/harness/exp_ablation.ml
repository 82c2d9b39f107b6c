(* E13 — ablation of the hardening knobs (DESIGN.md §5).

   Two knobs the repository adds on top of the paper:

   - census_rounds: how many token-census confirmation rounds a searcher
     runs before regenerating the token (0 = the paper's immediate
     regeneration). Measured on the churn workload: safety (violations)
     vs overhead.

   - asker_patience: multiplier on the paper's 2·pmax·δ suspicion
     timeout. Too low and ordinary queueing triggers ill-founded searches
     (safe but costly); too high and real failures take longer to detect.
     Measured as spurious searches under failure-free contention, and as
     total overhead under churn. *)

open Ocube_mutex
open Ocube_stats

let churn ~census_rounds ~asker_patience ~seed =
  let p = 5 in
  let n = 1 lsl p in
  let failures = 150 in
  let spacing = 2000.0 in
  let env, algo =
    Exp_common.make_opencube ~seed ~census_rounds ~asker_patience ~p
      ~cs:(Runner.Fixed 1.0) ()
  in
  let horizon = 100.0 +. (float_of_int failures *. spacing) +. 500.0 in
  let arrivals =
    Runner.Arrivals.poisson ~rng:(Runner.rng env) ~n
      ~rate_per_node:(0.032 /. float_of_int n) ~horizon
  in
  Runner.run_arrivals env arrivals;
  let faults =
    Runner.Faults.random ~rng:(Runner.rng env) ~n ~count:failures ~start:100.0
      ~spacing ~recover_after:(Some 100.0) ()
  in
  Runner.schedule_faults env faults;
  Runner.run_to_quiescence env;
  let st = Opencube_algo.stats algo in
  ( Runner.violations env,
    float_of_int (Runner.fault_overhead_messages env) /. float_of_int failures,
    st.token_regenerations,
    st.searches_started,
    Runner.outstanding env )

let census_table () =
  let table =
    Table.create
      ~title:
        "E13a. Census-rounds ablation (N = 32, 150 failures with recovery, \
         light load): safety vs overhead"
      ~columns:
        [
          ("census_rounds", Table.Right);
          ("violations", Table.Right);
          ("overhead/failure", Table.Right);
          ("regenerations", Table.Right);
          ("searches", Table.Right);
          ("unserved", Table.Right);
        ]
      ()
  in
  List.iter
    (fun census_rounds ->
      let viol, ovh, regen, searches, unserved =
        churn ~census_rounds ~asker_patience:1.0 ~seed:31
      in
      Table.add_row table
        [
          (if census_rounds = 0 then "0 (paper)" else string_of_int census_rounds);
          Table.fmt_int viol;
          Table.fmt_float ovh;
          Table.fmt_int regen;
          Table.fmt_int searches;
          Table.fmt_int unserved;
        ])
    [ 0; 1; 2; 3 ];
  Table.render table

let contention_searches ~asker_patience ~seed =
  (* Failure-free but contended: every search is ill-founded. *)
  let p = 5 in
  let n = 1 lsl p in
  let env, algo =
    Exp_common.make_opencube ~seed ~asker_patience ~p ~cs:(Runner.Fixed 1.0) ()
  in
  let arrivals =
    Runner.Arrivals.poisson ~rng:(Runner.rng env) ~n
      ~rate_per_node:(0.25 /. float_of_int n) ~horizon:10_000.0
  in
  Runner.run_arrivals env arrivals;
  Runner.run_to_quiescence env;
  let st = Opencube_algo.stats algo in
  assert (Runner.violations env = 0);
  ( st.searches_started,
    Runner.fault_overhead_messages env,
    Runner.cs_entries env )

let patience_table () =
  let table =
    Table.create
      ~title:
        "E13b. Asker-patience ablation. Left: failure-free contention (all \
         searches are ill-founded). Right: churn workload overhead."
      ~columns:
        [
          ("patience", Table.Right);
          ("spurious searches", Table.Right);
          ("wasted msgs", Table.Right);
          ("CS entries", Table.Right);
          ("churn overhead/failure", Table.Right);
          ("churn violations", Table.Right);
        ]
      ()
  in
  List.iter
    (fun patience ->
      let spurious, wasted, entries = contention_searches ~asker_patience:patience ~seed:41 in
      let viol, ovh, _, _, _ = churn ~census_rounds:2 ~asker_patience:patience ~seed:41 in
      Table.add_row table
        [
          Printf.sprintf "%.0fx" patience;
          Table.fmt_int spurious;
          Table.fmt_int wasted;
          Table.fmt_int entries;
          Table.fmt_float ovh;
          Table.fmt_int viol;
        ])
    [ 1.0; 2.0; 5.0; 10.0 ];
  Table.render table

let run () =
  census_table () ^ "\n" ^ patience_table ()
  ^ "E13a: the paper's immediate regeneration (row 0) trades safety for a \
     few\npercent of overhead; one census round already removes the \
     violations seen\nhere, two guard the in-flight window (DESIGN.md \
     §5). E13b: patience trades\nill-founded-search waste under contention \
     against failure-detection latency\n(which is patience * 2 * pmax * \
     delta).\n"
