(* E8 — recovery latency (extension beyond the paper's tables).

   The paper's Section 5 machinery is measured in messages; here we measure
   it in *time*: how long a request that ran into a failure takes to be
   served, compared with the fault-free baseline. The detection delay
   (asker timeout, 2·pmax·δ) plus the phase walk (≥ 2δ per ring) dominate,
   so the expected shape is ~linear in log2 N. *)

open Ocube_mutex
open Ocube_stats
module Rng = Ocube_sim.Rng
module Pool = Ocube_par.Pool

(* Per trial: a dedicated environment, a scrambling warmup, then one timed
   request - with or without a preceding failure of the requester's
   father. Warmup probes are serial and uncontended (waits of a few δ), so
   the timed request dominates the wait summary's maximum, which is the
   latency we want. *)
let timed_request ~p ~kill_father ~seed =
  let n = 1 lsl p in
  let env, algo = Exp_common.make_opencube ~seed ~p ~cs:(Runner.Fixed 1.0) () in
  let rng = Rng.create seed in
  for _ = 1 to n do
    ignore (Exp_common.probe env (Rng.int rng n))
  done;
  let node = 1 + Rng.int rng (n - 1) in
  (if kill_father then
     let father =
       match Opencube_algo.father algo node with Some f -> f | None -> 0
     in
     Runner.schedule_faults env
       [ Runner.Faults.at (Runner.now env +. 0.5) father () ]);
  Runner.run_arrivals env
    (Runner.Arrivals.single ~node ~at:(Runner.now env +. 1.0));
  Runner.run_to_quiescence env;
  assert (Runner.violations env = 0);
  Summary.max_value (Runner.wait_stats env)

let run () =
  let trials = 25 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E8. Service latency of a request that hits a failed father vs \
            fault-free (delta = 1, %d trials per size; asker timeout = \
            2*pmax*delta)"
           trials)
      ~columns:
        [
          ("N", Table.Right);
          ("fault-free latency", Table.Right);
          ("latency with failure", Table.Right);
          ("detection (2 pmax d)", Table.Right);
          ("repair extra", Table.Right);
        ]
      ()
  in
  List.iter
    (fun p ->
      let base = Summary.create () and fail = Summary.create () in
      (* Each trial is a pair of isolated runs; the in-order fold keeps the
         summaries bit-identical to the serial loop. *)
      Array.iter
        (fun (b, f) ->
          Summary.add base b;
          Summary.add fail f)
        (Pool.map_array (Pool.default ()) ~n:trials (fun i ->
             let seed = 7000 + i + 1 in
             ( timed_request ~p ~kill_father:false ~seed,
               timed_request ~p ~kill_father:true ~seed )));
      let detection = 2.0 *. float_of_int p in
      Table.add_row table
        [
          Table.fmt_int (1 lsl p);
          Table.fmt_float (Summary.mean base);
          Table.fmt_float (Summary.mean fail);
          Table.fmt_float detection;
          Table.fmt_float (Summary.mean fail -. Summary.mean base -. detection);
        ])
    [ 3; 4; 5; 6 ];
  Table.render table
  ^ "Latency under failure = normal service + detection timeout + the \
     search's\nring walk; all components are O(log N) in time, matching \
     the paper's claim\nthat recovery is local and cheap.\n"
