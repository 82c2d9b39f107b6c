(* Replays the paper's Section 5 worked example: on a 16-open-cube, nodes
   10 and 12 issue requests but node 9 fails before processing them; both
   askers suspect the failure and run search_father concurrently (Figures
   14-15). Node 9 later recovers, reconnects as a leaf, and the request of
   node 13 trips the anomaly check, repaired by another search (Figures
   16-17).

   Run with:  dune exec examples/failure_recovery.exe *)

open Ocube_mutex
module Opencube = Ocube_topology.Opencube

let () =
  let env =
    Runner.make_env ~seed:2 ~n:16
      ~delay:(Ocube_net.Network.Constant 1.0)
      ~cs:(Runner.Fixed 2.0) ~trace:true ()
  in
  let algo =
    Opencube_algo.create ~net:(Runner.net env)
      ~callbacks:(Runner.callbacks env)
      ~config:(Opencube_algo.default_config ~p:4)
  in
  Runner.attach env (Opencube_algo.instance algo);

  print_endline "Section 5 walkthrough (paper node k = trace id k-1)";
  print_endline "Node 9 (id 8) fails; 10 (id 9) and 12 (id 11) have requests";
  print_endline "in flight; 9 recovers later; then 13 (id 12) requests.\n";

  (* Node 9 (id 8) fails early and recovers at t = 40.5. *)
  Runner.schedule_faults env [ Runner.Faults.at 0.5 8 ~recover_after:40.0 () ];
  (* The two concurrent requests of the example. *)
  Runner.run_arrivals env (Runner.Arrivals.single ~node:9 ~at:1.0);
  Runner.run_arrivals env (Runner.Arrivals.single ~node:11 ~at:1.0);
  (* After recovery, the stale descendant 13 (id 12) requests. *)
  Runner.run_arrivals env (Runner.Arrivals.single ~node:12 ~at:80.0);
  Runner.run_to_quiescence env;

  print_endline "Message trace:";
  print_string (Runner.render_trace env);

  let st = Opencube_algo.stats algo in
  Printf.printf
    "\n%d critical sections; %d searches; %d probes; %d anomaly repairs; %d \
     token regenerations; %d violations.\n"
    (Runner.cs_entries env) st.searches_started st.search_nodes_tested
    st.anomalies_detected st.token_regenerations (Runner.violations env);

  print_endline "\nFinal configuration (compare with the paper's Figure 17):";
  print_string
    (Opencube.render (Opencube.of_fathers (Opencube_algo.snapshot_tree algo)))
