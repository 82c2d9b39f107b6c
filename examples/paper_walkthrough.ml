(* Replays the paper's Section 3.2 worked example with a full message
   trace: the 16-open-cube where node 1 has lent the token to node 6, and
   nodes 10 and 8 request concurrently. The final configuration is the
   paper's Figure 8.

   Node ids are 0-based internally; the printout follows the trace (id k =
   paper node k+1).

   Run with:  dune exec examples/paper_walkthrough.exe *)

open Ocube_mutex
module Opencube = Ocube_topology.Opencube

let () =
  let env =
    Runner.make_env ~seed:1 ~n:16
      ~delay:(Ocube_net.Network.Constant 1.0)
      ~cs:(Runner.Fixed 10.0) ~trace:true ()
  in
  let algo =
    Opencube_algo.create ~net:(Runner.net env)
      ~callbacks:(Runner.callbacks env)
      ~config:
        { (Opencube_algo.default_config ~p:4) with fault_tolerance = false }
  in
  Runner.attach env (Opencube_algo.instance algo);

  print_endline "Section 3.2 walkthrough (paper node k = trace id k-1)";
  print_endline "Figure 6 setup: node 6 (id 5) borrows the token first;";
  print_endline "nodes 10 (id 9) and 8 (id 7) request while it is in CS.\n";

  Runner.run_arrivals env (Runner.Arrivals.single ~node:5 ~at:1.0);
  Runner.run_arrivals env (Runner.Arrivals.single ~node:9 ~at:5.0);
  Runner.run_arrivals env (Runner.Arrivals.single ~node:7 ~at:6.0);
  Runner.run_to_quiescence env;

  print_endline "Message trace:";
  print_string (Runner.render_trace env);

  Printf.printf "\n%d critical sections served with %d messages.\n"
    (Runner.cs_entries env) (Runner.messages_sent env);

  print_endline "\nFinal configuration (paper Figure 8: root 8):";
  print_string
    (Opencube.render (Opencube.of_fathers (Opencube_algo.snapshot_tree algo)));
  match Opencube_algo.check_opencube algo with
  | Ok () -> print_endline "structure check: the tree is still an open-cube"
  | Error m -> print_endline ("structure check FAILED: " ^ m)
