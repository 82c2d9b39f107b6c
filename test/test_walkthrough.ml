(* Golden reproduction of the paper's Section 3.2 worked example.

   Initial situation (Figure 6): 16-open-cube, node 1 has lent the token to
   node 6, which is in its critical section. Nodes 10 and 8 then wish to
   enter. The paper walks through every message; we replay the schedule and
   assert the key intermediate and final states (Figures 7 and 8).

   Paper node k is id k-1 here. *)

open Ocube_mutex
module Opencube = Ocube_topology.Opencube

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_father = Alcotest.(check (option int))

type setup = { env : Runner.env; algo : Opencube_algo.t }

(* Build the Figure 6 situation: 6 (id 5) borrows the token with a long CS
   so that the requests of 10 (id 9) and 8 (id 7) arrive while it is
   inside. The paper serves 10 before 8, which is what a FIFO queue at node
   1 produces when request(9->id8...) ... arrives before request(8). *)
let make () =
  let env =
    Runner.make_env ~seed:1 ~n:16 ~delay:(Ocube_net.Network.Constant 1.0)
      ~cs:(Runner.Fixed 10.0) ~trace:true ()
  in
  let config =
    { (Opencube_algo.default_config ~p:4) with fault_tolerance = false }
  in
  let algo =
    Opencube_algo.create ~net:(Runner.net env)
      ~callbacks:(Runner.callbacks env) ~config
  in
  Runner.attach env (Opencube_algo.instance algo);
  { env; algo }

let test_initial_loan () =
  let s = make () in
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:5 ~at:1.0);
  Runner.run ~until:6.0 s.env;
  (* 6 is in CS, its lender is 1 (the root lent the token), and the root is
     busy (asking) until the token returns - exactly Figure 6. *)
  checkb "6 in CS" true (Opencube_algo.in_cs s.algo 5);
  checkb "1 is asking (lender busy)" true (Opencube_algo.is_asking s.algo 0);
  check_father "6's father is 5" (Some 4) (Opencube_algo.father s.algo 5);
  check_father "1 still root" None (Opencube_algo.father s.algo 0)

let test_requests_queue_at_busy_root () =
  let s = make () in
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:5 ~at:1.0);
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:9 ~at:5.0);
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:7 ~at:6.0);
  Runner.run ~until:9.5 s.env;
  (* request(9) has been through 9's proxy (id 8) and is queued at the busy
     root; request(8) climbed through transit nodes 7 and 5, whose father
     pointers already point at 8 (first half of the b-transformations) -
     Figure 7. *)
  checkb "9 (id 8) is proxy for 10" true (Opencube_algo.is_asking s.algo 8);
  check_father "7's father flipped to 8" (Some 7) (Opencube_algo.father s.algo 6);
  check_father "5's father flipped to 8" (Some 7) (Opencube_algo.father s.algo 4);
  checkb "root has queued requests" true
    (Opencube_algo.queue_length s.algo 0 > 0)

let run_full () =
  let s = make () in
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:5 ~at:1.0);
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:9 ~at:5.0);
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:7 ~at:6.0);
  Runner.run_to_quiescence s.env;
  s

let test_final_configuration_figure8 () =
  let s = run_full () in
  checki "three critical sections" 3 (Runner.cs_entries s.env);
  checki "no violations" 0 (Runner.violations s.env);
  (* Figure 8: 8 is the root and keeps the token; its sons are 9 (with the
     whole 9..16 half), 1 (with 2,3,4), 5 (with 6) and 7. *)
  check_father "8 is root" None (Opencube_algo.father s.algo 7);
  Alcotest.(check (list int))
    "8 holds the token" [ 7 ]
    (Opencube_algo.token_holders s.algo);
  check_father "9 under 8" (Some 7) (Opencube_algo.father s.algo 8);
  check_father "1 under 8" (Some 7) (Opencube_algo.father s.algo 0);
  check_father "5 under 8" (Some 7) (Opencube_algo.father s.algo 4);
  check_father "7 under 8" (Some 7) (Opencube_algo.father s.algo 6);
  check_father "6 under 5" (Some 4) (Opencube_algo.father s.algo 5);
  check_father "10 under 9" (Some 8) (Opencube_algo.father s.algo 9);
  check_father "2 under 1" (Some 0) (Opencube_algo.father s.algo 1);
  (* And the result is a valid open-cube. *)
  match Opencube_algo.check_opencube s.algo with
  | Ok () -> ()
  | Error m -> Alcotest.failf "final tree not an open-cube: %s" m

let test_power_evolution () =
  let s = run_full () in
  (* Figure 8 powers: 8 rose to 4 (root); 9 keeps 3; 1 fell to 2; 5 fell
     to 1; 7 fell to 0. *)
  checki "power 8" 4 (Opencube_algo.power s.algo 7);
  checki "power 9" 3 (Opencube_algo.power s.algo 8);
  checki "power 1" 2 (Opencube_algo.power s.algo 0);
  checki "power 5" 1 (Opencube_algo.power s.algo 4);
  checki "power 7" 0 (Opencube_algo.power s.algo 6)

let test_trace_message_sequence () =
  (* The paper's walkthrough implies an exact message sequence; spot-check
     the pivotal ones in the structured record. *)
  let s = run_full () in
  let sends =
    List.filter_map
      (fun e ->
        match e.Runner.step with
        | Runner.Send { dst; msg } -> Some (e.Runner.node, dst, msg)
        | _ -> None)
      (Runner.trace s.env)
  in
  let sent ~src ~dst p =
    List.exists (fun (s, d, m) -> s = src && d = dst && p m) sends
  in
  (* 6's request travels as a proxy chain: 5 asks on its own account. *)
  checkb "5 proxies for 6" true
    (sent ~src:4 ~dst:0 (function
      | Types.Message.Request { origin = 4; _ } -> true
      | _ -> false));
  (* 9 (id 8) becomes the lender of the token for 10 (id 9). *)
  checkb "9 lends to 10" true
    (sent ~src:8 ~dst:9 (function
      | Types.Message.Token { lender = Some 8; _ } -> true
      | _ -> false));
  (* 10 returns the token to its lender 9. *)
  checkb "10 returns to 9" true
    (sent ~src:9 ~dst:8 (function
      | Types.Message.Token { lender = None; rid = None } -> true
      | _ -> false));
  (* 9 finally gives the token up to 8 (id 7) - transit behaviour. *)
  checkb "9 gives up to 8" true
    (sent ~src:8 ~dst:7 (function
      | Types.Message.Token { lender = None; _ } -> true
      | _ -> false));
  (* 8 keeps the token at the end: no further sends from id 7.
     Exact count: 5 messages per request (6: req,req,loan,forward,return;
     10: req,req,give-up,loan,return; 8: req,req,req,req,give-up). *)
  checki "total messages of the walkthrough" 15
    (Runner.messages_sent s.env);
  checki "the record holds every message" 15 (List.length sends)

let test_message_count_breakdown () =
  (* By-category totals for the full scenario:
     requests: 6->5, 5->1 (proxy chain for 6); 10->9, 9->1 (proxy for 10);
               8->7, 7->5, 5->1, 1->9 (transit chain for 8)  = 8
     tokens:   1->6 loan... (1->5? no - the root lends directly to the
               origin 5, which forwards to 6) + returns + final give-up. *)
  let s = run_full () in
  let cats = Runner.messages_by_category s.env in
  let get c = Option.value ~default:0 (List.assoc_opt c cats) in
  checki "requests + tokens = all" (Runner.messages_sent s.env)
    (get "request" + get "token");
  checkb "several token messages" true (get "token" >= 5);
  checkb "several request messages" true (get "request" >= 6)

let suite =
  [
    Alcotest.test_case "Figure 6: initial loan to node 6" `Quick
      test_initial_loan;
    Alcotest.test_case "Figure 7: transit pointers flip early" `Quick
      test_requests_queue_at_busy_root;
    Alcotest.test_case "Figure 8: final configuration" `Quick
      test_final_configuration_figure8;
    Alcotest.test_case "power evolution across the walkthrough" `Quick
      test_power_evolution;
    Alcotest.test_case "pivotal messages appear in the trace" `Quick
      test_trace_message_sequence;
    Alcotest.test_case "message count breakdown" `Quick
      test_message_count_breakdown;
  ]
