(* E5 — search_father cost (paper, Section 5).

   "only 2^(d-1) nodes are at distance d of a given node"; the worst case
   tests the whole cube, but in the average the number of tested nodes is
   O(log2 N). We fail one random node that another node depends on, have a
   random descendant request, and count probe messages until the system
   settles. *)

open Ocube_mutex
open Ocube_stats
module Rng = Ocube_sim.Rng

let run_one ~p ~trials ~seed =
  let n = 1 lsl p in
  let summary = Summary.create () in
  let worst = ref 0 in
  let rng = Rng.create seed in
  for _ = 1 to trials do
    let env, algo =
      Exp_common.make_opencube ~seed:(Rng.int rng 1_000_000) ~p
        ~cs:(Runner.Fixed 1.0) ()
    in
    (* Fail the father of a random non-root node, then let that node
       request: its search_father must reconnect it. *)
    let node = 1 + Rng.int rng (n - 1) in
    let father =
      match Opencube_algo.father algo node with Some f -> f | None -> 0
    in
    Runner.schedule_faults env [ Runner.Faults.at 0.5 father () ];
    Runner.run_arrivals env (Runner.Arrivals.single ~node ~at:1.0);
    Runner.run_to_quiescence env;
    assert (Runner.violations env = 0);
    let st = Opencube_algo.stats algo in
    Summary.add_int summary st.search_nodes_tested;
    if st.search_nodes_tested > !worst then worst := st.search_nodes_tested
  done;
  (Summary.mean summary, !worst)

let run () =
  let table =
    Table.create
      ~title:
        "E5. search_father probe cost after a father failure (100 trials \
         per size)"
      ~columns:
        [
          ("N", Table.Right);
          ("mean probes", Table.Right);
          ("worst probes", Table.Right);
          ("N-1 (full sweep)", Table.Right);
          ("log2 N", Table.Right);
        ]
      ()
  in
  List.iter
    (fun p ->
      let mean, worst = run_one ~p ~trials:100 ~seed:(3000 + p) in
      Table.add_row table
        [
          Table.fmt_int (1 lsl p);
          Table.fmt_float mean;
          Table.fmt_int worst;
          Table.fmt_int ((1 lsl p) - 1);
          Table.fmt_int p;
        ])
    [ 2; 3; 4; 5; 6; 7 ];
  Table.render table
  ^ "Probes grow far slower than N (locality): each phase d touches only \
     2^(d-1)\nnodes and most searches conclude within a few phases.\n"
