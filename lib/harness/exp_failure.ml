(* E3 — fault-tolerance overhead (paper, Conclusion).

   The paper reports, from an Estelle implementation on an Intel iPSC/2:
     N = 32: 8    overhead messages per failure (300 failures)
     N = 64: 9.75 overhead messages per failure (200 failures)
   i.e. O(log2 N) on average.

   Two methodologies:

   - E3a (controlled): per-trial, scramble a cube with a warmup, fail one
     random node, drive a handful of requests through the hole, recover the
     node, drive a few more (exercising anomaly repair), and count the
     fault-machinery messages. This isolates the cost of one failure the
     way a controlled fault-injection campaign does. Reported for the
     paper-faithful mode (census off) and the hardened mode (census on;
     regeneration costs O(N) extra when the failed node held the token).

   - E3b (ambient): the paper's aggregate protocol — a long run with
     failures injected every 2000 time units (recovery after 500) under
     light Poisson load; overhead messages divided by the failure count.
     Also reports safety violations, which is where the paper-faithful
     regeneration rule shows its unsafety. *)

open Ocube_mutex
open Ocube_stats
module Rng = Ocube_sim.Rng
module Pool = Ocube_par.Pool

(* --- E3a: controlled single-failure trials ----------------------------- *)

(* The overhead of a trial, split three ways: the paper's own repair,
   search_father (test probes and their answers, anomaly notices), the
   closest reading of its 8 and 9.75 per failure; lender enquiries and
   their answers, most of which fire on live loans (the same probes
   without a failure send about as many); and this repository's
   hardening (census, custody queries, wait-for walks, voids). *)
let overhead_split env =
  let by_cat = Runner.messages_by_category env in
  let count cats =
    List.fold_left
      (fun acc c -> acc + Option.value ~default:0 (List.assoc_opt c by_cat))
      0 cats
  in
  ( count [ "test"; "test_answer"; "anomaly" ],
    count [ "enquiry"; "enquiry_answer" ],
    count
      [ "census"; "census_reply"; "custody"; "custody_answer"; "probe"; "void" ]
  )

let controlled_trial ~seed ~p ~census_rounds =
  let n = 1 lsl p in
  let env, algo =
    Exp_common.make_opencube ~seed ~census_rounds ~p ~cs:(Runner.Fixed 1.0) ()
  in
  let rng = Runner.rng env in
  (* Warmup: scramble the tree. *)
  for _ = 1 to 2 * n do
    ignore (Exp_common.probe env (Rng.int rng n))
  done;
  Runner.reset_message_counters env;
  (* Fail one node (never the same as the one about to request). *)
  let victim = Rng.int rng n in
  Runner.schedule_faults env
    [ Runner.Faults.at (Runner.now env +. 1.0) victim ~recover_after:200.0 () ];
  (* Drive requests through the hole. *)
  for _ = 1 to 12 do
    let node = Rng.int rng n in
    if node <> victim then ignore (Exp_common.probe env node)
  done;
  Runner.run_to_quiescence env;
  (* After recovery, a few more requests exercise anomaly repair. *)
  for _ = 1 to 6 do
    ignore (Exp_common.probe env (Rng.int rng n))
  done;
  Runner.run_to_quiescence env;
  ( Runner.fault_overhead_messages env,
    overhead_split env,
    Runner.violations env,
    (Opencube_algo.stats algo).token_regenerations )

(* Trials are seed-isolated (each builds its own env), so they fan out
   over the default pool; the reduction below runs in trial order, making
   the summary bit-identical to the serial loop. *)
let controlled ~p ~census_rounds ~trials =
  let overhead = Summary.create () in
  let search = Summary.create ()
  and enquiry = Summary.create ()
  and hardening = Summary.create () in
  let violations = ref 0 in
  let regens = ref 0 in
  Array.iter
    (fun (o, (s, e, h), v, r) ->
      Summary.add_int overhead o;
      Summary.add_int search s;
      Summary.add_int enquiry e;
      Summary.add_int hardening h;
      violations := !violations + v;
      regens := !regens + r)
    (Pool.map_array (Pool.default ()) ~n:trials (fun i ->
         controlled_trial ~seed:((p * 1000) + i + 1) ~p ~census_rounds));
  (overhead, (search, enquiry, hardening), !violations, !regens)

let controlled_table () =
  let trials = 30 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E3a. Controlled fault injection: overhead messages per failure \
            (%d trials per size; one failure + recovery per trial)"
           trials)
      ~columns:
        [
          ("N", Table.Right);
          ("paper", Table.Right);
          ("mean (paper mode)", Table.Right);
          ("mean (hardened)", Table.Right);
          ("= search_father", Table.Right);
          ("+ enquiries", Table.Right);
          ("+ hardening", Table.Right);
          ("max (hardened)", Table.Right);
          ("regens paper/hard", Table.Right);
          ("violations paper/hard", Table.Right);
        ]
      ()
  in
  List.iter
    (fun p ->
      let o0, _, v0, r0 = controlled ~p ~census_rounds:0 ~trials in
      let o2, (s2, e2, h2), v2, r2 = controlled ~p ~census_rounds:2 ~trials in
      let paper =
        match 1 lsl p with 32 -> "8.00" | 64 -> "9.75" | _ -> "-"
      in
      Table.add_row table
        [
          Table.fmt_int (1 lsl p);
          paper;
          Table.fmt_float (Summary.mean o0);
          Table.fmt_float (Summary.mean o2);
          Table.fmt_float (Summary.mean s2);
          Table.fmt_float (Summary.mean e2);
          Table.fmt_float (Summary.mean h2);
          Table.fmt_float (Summary.max_value o2);
          Printf.sprintf "%d/%d" r0 r2;
          Printf.sprintf "%d/%d" v0 v2;
        ])
    [ 3; 4; 5; 6; 7 ];
  Table.render table

(* --- E3b: ambient campaign --------------------------------------------- *)

let ambient ~seed ~p ~failures ~census_rounds =
  let n = 1 lsl p in
  let spacing = 2000.0 in
  (* asker_patience 5: suspect a failure only after 10*pmax*delta without
     the token, so that ordinary queueing under load does not trigger
     searches - the paper's delay is a lower bound ("at least 2*pmax*delta"). *)
  let env, algo =
    Exp_common.make_opencube ~seed ~census_rounds ~asker_patience:5.0 ~p
      ~cs:(Runner.Fixed 1.0) ()
  in
  let horizon = 100.0 +. (float_of_int failures *. spacing) +. 500.0 in
  (* Constant system-wide request rate (0.032/t) so that the number of
     requests exposed to each failure does not scale with N - matching a
     fixed-intensity testbed campaign. *)
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
  ( float_of_int (Runner.fault_overhead_messages env) /. float_of_int failures,
    Runner.violations env,
    st.token_regenerations,
    Runner.cs_entries env,
    Runner.outstanding env )

let ambient_table () =
  let table =
    Table.create
      ~title:
        "E3b. Ambient campaign (failure every 2000 time units, recovery \
         after 100, Poisson load 0.032 system-wide): overhead per failure"
      ~columns:
        [
          ("N", Table.Right);
          ("failures", Table.Right);
          ("paper", Table.Right);
          ("mode", Table.Left);
          ("overhead/failure", Table.Right);
          ("regens", Table.Right);
          ("CS entries", Table.Right);
          ("violations", Table.Right);
          ("unserved", Table.Right);
        ]
      ()
  in
  let configs =
    List.concat_map
      (fun (p, failures) ->
        List.map (fun census_rounds -> (p, failures, census_rounds)) [ 0; 2 ])
      [ (4, 100); (5, 300); (6, 200) ]
  in
  (* The six campaigns are independent long runs: map them over the pool,
     then lay the rows out in config order. *)
  let results =
    Pool.map_list
      (Pool.default ())
      (fun (p, failures, census_rounds) ->
        ambient ~seed:(5000 + p) ~p ~failures ~census_rounds)
      configs
  in
  List.iter2
    (fun (p, failures, census_rounds) (o, v, r, e, u) ->
      let n = 1 lsl p in
      Table.add_row table
        [
          Table.fmt_int n;
          Table.fmt_int failures;
          (match n with 32 -> "8.00" | 64 -> "9.75" | _ -> "-");
          (if census_rounds = 0 then "paper" else "hardened");
          Table.fmt_float o;
          Table.fmt_int r;
          Table.fmt_int e;
          Table.fmt_int v;
          Table.fmt_int u;
        ];
      if census_rounds = 2 then Table.add_separator table)
    configs results;
  Table.render table

let run () =
  controlled_table ()
  ^ "The hardened mean splits into search_father (test probes, their \
     answers and\nanomaly notices: the paper's own repair, the closest \
     reading of its 8 and 9.75),\nlender enquiries with their answers, \
     and the hardening (census, custody, walks,\nvoids).\n\n"
  ^ ambient_table ()
  ^ "Overhead counts enquiry/answer/test-probe/anomaly/census/custody/\
     wait-for-probe messages;\nthe paper counted only its own repair messages, so absolute values \
     here run\nhigher, but the shape matches: roughly flat-to-logarithmic \
     in N, nowhere\nnear linear. The violations column is the reproduction \
     finding: the paper's\nimmediate post-search regeneration is unsafe \
     under churn (nonzero column),\nwhile the census-hardened mode stays \
     at 0 with the same workload.\n"
