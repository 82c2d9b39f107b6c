(* Bounded verification demo: exhaustively explore every message
   interleaving of the shipped fault-free protocol core (Opencube_algo's
   own handlers over the model checker's bag runtime) on a 4-node
   open-cube where
   every node wants the critical section twice, checking all invariants on
   all reachable states.

   Run with:  dune exec examples/verify.exe *)

let () =
  print_endline
    "Exploring every interleaving of a 4-node open-cube, 2 wishes per node...";
  (try
     let s = Ocube_model.Explore.run ~p:2 ~wishes:2 () in
     Printf.printf
       "  %d reachable states, %d transitions, %d terminal states\n"
       s.Ocube_model.Explore.states s.Ocube_model.Explore.transitions
       s.Ocube_model.Explore.terminals;
     Printf.printf "  peak concurrency: %d messages in flight; depth %d\n"
       s.Ocube_model.Explore.max_in_flight s.Ocube_model.Explore.max_depth;
     print_endline
       "  every state satisfies: <=1 node in CS, exactly one token,\n\
       \  holders hold the token, idle queues empty;\n\
       \  every terminal state: all wishes served, valid open-cube,\n\
       \  token at rest at the root."
   with Ocube_model.Explore.Violation v ->
     Printf.printf "VIOLATION: %s\n%s\n" v.Ocube_model.Explore.message
       (Format.asprintf "%a" Ocube_model.Machine.pp v.Ocube_model.Explore.state));
  print_endline
    "\nThe states are the core's own (Opencube_algo.export), so these are\n\
     facts about the code the simulator and the cluster run; run\n\
     `ocmutex experiments model-check` for the full sweep up to 8 nodes\n\
     (~4.4M states)."
