(* Fault-tolerance tests: token regeneration, search_father, recovery and
   anomaly repair (paper, Section 5). *)

open Ocube_mutex
module Rng = Ocube_sim.Rng

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

type setup = { env : Runner.env; algo : Opencube_algo.t }

let make ?(seed = 42) ?(cs = Runner.Fixed 5.0) ?(trace = false) p =
  let n = 1 lsl p in
  let env =
    Runner.make_env ~seed ~n ~delay:(Ocube_net.Network.Constant 1.0) ~cs ~trace ()
  in
  let config = Opencube_algo.default_config ~p in
  let algo =
    Opencube_algo.create ~net:(Runner.net env)
      ~callbacks:(Runner.callbacks env) ~config
  in
  Runner.attach env (Opencube_algo.instance algo);
  { env; algo }

let quiesce s = Runner.run_to_quiescence s.env

let assert_safe s = checki "violations" 0 (Runner.violations s.env)

(* --- token regeneration by the lender --------------------------------- *)

let test_borrower_dies_in_cs () =
  (* The root lends the token to node 1; node 1 dies inside its CS. The
     lender's enquiry gets no answer and the token is regenerated. *)
  let s = make ~cs:(Runner.Fixed 50.0) 3 in
  Runner.submit s.env 1;
  Runner.run ~until:3.0 s.env;
  checkb "node 1 in CS" true (Opencube_algo.in_cs s.algo 1);
  Runner.schedule_faults s.env [ Runner.Faults.at 4.0 1 () ];
  quiesce s;
  assert_safe s;
  let st = Opencube_algo.stats s.algo in
  checki "one token regeneration" 1 st.token_regenerations;
  checkb "token is back" true (Opencube_algo.token_holders s.algo = [ 0 ]);
  (* The system still works afterwards. *)
  Runner.submit s.env 3;
  quiesce s;
  checki "entries" 2 (Runner.cs_entries s.env);
  assert_safe s

let test_borrower_dies_before_receiving_token () =
  (* Token lost in flight: the root lends towards a node that is already
     dead by delivery time. *)
  let s = make ~cs:(Runner.Fixed 5.0) 3 in
  Runner.schedule_faults s.env [ Runner.Faults.at 1.5 1 () ];
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:1 ~at:1.0);
  (* Request leaves node 1 at t=1, reaches root t=2; node 1 dies at 1.5;
     the token sent at t=2 is dropped at t=3. *)
  quiesce s;
  assert_safe s;
  let st = Opencube_algo.stats s.algo in
  checki "token regenerated" 1 st.token_regenerations;
  checkb "root holds token again" true
    (Opencube_algo.token_holders s.algo = [ 0 ])

let test_enquiry_in_cs_is_ill_founded () =
  (* A long CS makes the lender suspect a failure; the borrower answers
     "still in CS" and no regeneration happens. *)
  let s = make ~cs:(Runner.Fixed 40.0) 3 in
  (* asker/loan timeouts: delta=1, e=1 -> loan timeout ~ 2*1+1; CS lasts 40
     so several enquiries fire. *)
  Runner.submit s.env 1;
  quiesce s;
  assert_safe s;
  let st = Opencube_algo.stats s.algo in
  checkb "enquiries were sent" true (st.enquiries_sent > 0);
  checki "no regeneration" 0 st.token_regenerations;
  checki "entries" 1 (Runner.cs_entries s.env)

let test_transit_chain_failure_loses_request () =
  (* A request forwarded through a node that dies before forwarding: the
     asker times out, searches a father and re-requests. *)
  let s = make ~cs:(Runner.Fixed 2.0) 4 in
  (* Path of node 9's request: 9 -> 8 -> 0 (8 transit). Kill 8 just before
     the request arrives. *)
  Runner.schedule_faults s.env [ Runner.Faults.at 1.5 8 () ];
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:9 ~at:1.0);
  quiesce s;
  assert_safe s;
  checki "request eventually satisfied" 1 (Runner.cs_entries s.env);
  let st = Opencube_algo.stats s.algo in
  checkb "a search ran" true (st.searches_started >= 1)

(* --- the paper's Section 5 worked example ------------------------------ *)

let test_paper_section5_example () =
  (* 16-open-cube; nodes 10 and 12 (paper numbering; ids 9 and 11) have
     issued requests and node 9 (id 8) fails before processing them.
     Expected (Figures 14-15): 12 concludes father := 10 from 10's test(2)
     probe; 10 walks phases up to 4 and adopts the root 1 (id 0). *)
  let s = make ~cs:(Runner.Fixed 2.0) 4 in
  (* Kill id 8 first so it never processes the requests. *)
  Runner.schedule_faults s.env [ Runner.Faults.at 0.5 8 () ];
  Runner.run_arrivals s.env
    (Runner.Arrivals.merge
       (Runner.Arrivals.single ~node:9 ~at:1.0)
       (Runner.Arrivals.single ~node:11 ~at:1.0));
  quiesce s;
  assert_safe s;
  checki "both requests satisfied" 2 (Runner.cs_entries s.env);
  let st = Opencube_algo.stats s.algo in
  checkb "searches ran" true (st.searches_started >= 2);
  checki "no token regeneration (root alive)" 0 st.token_regenerations;
  (* 12 (id 11) hangs under 10 (id 9) or its later position; the key paper
     claim is that reconnection used the locality of the structure: 12's
     search concluded from 10's probe without its own full sweep. The
     father of id 11 must now be id 9 or a live ancestor - never the dead
     id 8. *)
  checkb "12 no longer points at the dead node" true
    (Opencube_algo.father s.algo 11 <> Some 8)

let test_recovery_and_anomaly_repair () =
  (* Continuation of the paper example: node 9 (id 8) recovers, reconnects
     as a leaf, and the later request of node 13 (id 12) trips the anomaly
     check (power 9 < dist (9,13)) and is repaired by a new search. *)
  let s = make ~cs:(Runner.Fixed 2.0) 4 in
  Runner.schedule_faults s.env
    [ Runner.Faults.at 0.5 8 ~recover_after:40.0 () ];
  Runner.run_arrivals s.env
    (Runner.Arrivals.merge
       (Runner.Arrivals.single ~node:9 ~at:1.0)
       (Runner.Arrivals.single ~node:11 ~at:1.0));
  (* After recovery (t=40.5) the stale descendant id 12 requests. *)
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:12 ~at:80.0);
  quiesce s;
  assert_safe s;
  checki "all three requests satisfied" 3 (Runner.cs_entries s.env);
  let st = Opencube_algo.stats s.algo in
  checkb "anomaly detected and repaired" true (st.anomalies_detected >= 1);
  checkb "recovered node reconnected" true
    (not (Opencube_algo.searching s.algo 8))

let test_concurrent_suspicion_tie_break () =
  (* Figure 13: 4-open-cube, the root fails holding the token; b (id 1) and
     c (id 2) both suspect and search concurrently. Identity tie-break must
     produce exactly one root and one regenerated token. *)
  let s = make ~cs:(Runner.Fixed 1.0) 2 in
  Runner.schedule_faults s.env [ Runner.Faults.at 0.5 0 () ];
  Runner.run_arrivals s.env
    (Runner.Arrivals.merge
       (Runner.Arrivals.single ~node:1 ~at:1.0)
       (Runner.Arrivals.single ~node:2 ~at:1.0));
  quiesce s;
  assert_safe s;
  checki "both requests satisfied" 2 (Runner.cs_entries s.env);
  let st = Opencube_algo.stats s.algo in
  checki "exactly one token regeneration" 1 st.token_regenerations;
  checki "one token in the system" 1
    (List.length (Opencube_algo.token_holders s.algo))

let test_root_failure_idle_system () =
  (* The root (token holder) dies while nobody is asking; the next request
     must still be satisfiable through search + regeneration. *)
  let s = make ~cs:(Runner.Fixed 1.0) 3 in
  Runner.schedule_faults s.env [ Runner.Faults.at 1.0 0 () ];
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:5 ~at:2.0);
  quiesce s;
  assert_safe s;
  checki "request satisfied" 1 (Runner.cs_entries s.env);
  let st = Opencube_algo.stats s.algo in
  checki "token regenerated once" 1 st.token_regenerations

(* --- randomized fault injection ---------------------------------------- *)

let run_random_faults ~seed ~p ~failures ~with_recovery () =
  let n = 1 lsl p in
  let s = make ~seed ~cs:(Runner.Fixed 1.0) p in
  let horizon = 200.0 +. (float_of_int failures *. 120.0) in
  let arrivals =
    Runner.Arrivals.poisson ~rng:(Runner.rng s.env) ~n ~rate_per_node:0.005
      ~horizon
  in
  Runner.run_arrivals s.env arrivals;
  let faults =
    Runner.Faults.random ~rng:(Runner.rng s.env) ~n ~count:failures
      ~start:100.0 ~spacing:120.0
      ~recover_after:(if with_recovery then Some 60.0 else None)
      ()
  in
  Runner.schedule_faults s.env faults;
  quiesce s;
  assert_safe s;
  (* Every request issued by a node that did not die while waiting must be
     satisfied. *)
  checki "no outstanding requests" 0 (Runner.outstanding s.env);
  s

let test_random_faults_with_recovery () =
  for seed = 1 to 5 do
    ignore (run_random_faults ~seed ~p:3 ~failures:4 ~with_recovery:true ())
  done

let test_random_faults_without_recovery () =
  (* Without recovery the cube shrinks but survivors keep making progress
     (several failures, network never partitioned logically since all
     channels exist). *)
  for seed = 11 to 14 do
    ignore (run_random_faults ~seed ~p:3 ~failures:3 ~with_recovery:false ())
  done

let test_larger_cube_random_faults () =
  ignore (run_random_faults ~seed:5 ~p:5 ~failures:5 ~with_recovery:true ())

let test_search_cost_is_local () =
  (* Section 5: only 2^(d-1) nodes live at distance d, so reconnecting
     after a deep failure costs O(N) probes worst case but O(log N) when
     the replacement father is close. Kill the father of a power-0 node and
     watch the probe count stay tiny. *)
  let s = make ~cs:(Runner.Fixed 1.0) 5 in
  (* id 25's father is 24; 24's father is 16. Kill 24: 25's search starts
     at phase 1 and should conclude by phase 2 at the latest (id 26 or 27
     answer) or phase 3. *)
  Runner.schedule_faults s.env [ Runner.Faults.at 0.5 24 () ];
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:25 ~at:1.0);
  quiesce s;
  assert_safe s;
  checki "request satisfied" 1 (Runner.cs_entries s.env);
  let st = Opencube_algo.stats s.algo in
  (* Rings of 1, 2, 4 and 8 nodes are probed before the 4-group root 16
     answers at phase 4: 15 probes, less than half the 31 other nodes. *)
  checki "probe count follows the ring sizes" 15 st.search_nodes_tested

(* --- edge cases --------------------------------------------------------- *)

let test_searcher_dies_mid_search () =
  (* A node starts search_father and dies mid-sweep; its probes must not
     corrupt anyone, and other nodes keep working. *)
  let s = make ~cs:(Runner.Fixed 1.0) 4 in
  (* 9's father 8 dies; 9 starts searching; then 9 dies too. *)
  Runner.schedule_faults s.env
    [ Runner.Faults.at 0.5 8 (); Runner.Faults.at 12.0 9 () ];
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:9 ~at:1.0);
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:3 ~at:30.0);
  quiesce s;
  assert_safe s;
  (* 9's request dies with it (abandoned); 3 is served. *)
  checki "node 3 served" 1 (Runner.cs_entries s.env);
  checki "9's request abandoned" 1 (Runner.abandoned s.env)

let test_census_node_dies_before_regenerating () =
  (* The root fails holding the token; the would-be regenerator (smallest
     searcher) dies during its census; the next searcher must complete the
     regeneration - liveness must not hinge on one node. *)
  let s = make ~cs:(Runner.Fixed 1.0) 2 in
  Runner.schedule_faults s.env [ Runner.Faults.at 0.5 0 () ];
  Runner.run_arrivals s.env
    (Runner.Arrivals.merge
       (Runner.Arrivals.single ~node:1 ~at:1.0)
       (Runner.Arrivals.single ~node:2 ~at:1.0));
  (* Node 1 will win the census arbitration (smaller id); kill it just
     before it can conclude. *)
  Runner.schedule_faults s.env [ Runner.Faults.at 14.0 1 () ];
  quiesce s;
  assert_safe s;
  checkb "node 2 eventually served" true (Runner.cs_entries s.env >= 1);
  checki "nothing left outstanding" 0 (Runner.outstanding s.env)

let test_two_concurrent_failures () =
  (* Two nodes in different halves fail simultaneously (the paper's
     multi-failure case: procedures are unchanged as long as the network
     stays connected). *)
  let s = make ~cs:(Runner.Fixed 1.0) 4 in
  Runner.schedule_faults s.env
    [ Runner.Faults.at 0.5 8 (); Runner.Faults.at 0.5 4 () ];
  Runner.run_arrivals s.env
    (Runner.Arrivals.merge
       (Runner.Arrivals.single ~node:9 ~at:1.0)
       (Runner.Arrivals.single ~node:5 ~at:1.0));
  quiesce s;
  assert_safe s;
  checki "both survivors served" 2 (Runner.cs_entries s.env)

let test_repeated_fail_recover_same_node () =
  let s = make ~cs:(Runner.Fixed 1.0) 3 in
  Runner.schedule_faults s.env
    [
      Runner.Faults.at 5.0 2 ~recover_after:20.0 ();
      Runner.Faults.at 60.0 2 ~recover_after:20.0 ();
      Runner.Faults.at 120.0 2 ~recover_after:20.0 ();
    ];
  let arrivals =
    Runner.Arrivals.poisson ~rng:(Runner.rng s.env) ~n:8 ~rate_per_node:0.01
      ~horizon:200.0
  in
  Runner.run_arrivals s.env arrivals;
  quiesce s;
  assert_safe s;
  checki "no outstanding" 0 (Runner.outstanding s.env)

let test_idle_holder_dies_with_queued_requests () =
  (* The root holds the token and a long CS; requests queue at it; it dies
     inside the CS, losing both token and queue. All queued requesters
     must still be served after regeneration. *)
  let s = make ~cs:(Runner.Fixed 30.0) 3 in
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:0 ~at:1.0);
  Runner.run_arrivals s.env
    (Runner.Arrivals.burst ~nodes:[ 3; 5; 6 ] ~at:5.0);
  Runner.schedule_faults s.env [ Runner.Faults.at 15.0 0 () ];
  quiesce s;
  assert_safe s;
  (* 0 entered once then died; 3, 5, 6 must all get in eventually. *)
  checki "all served" 4 (Runner.cs_entries s.env);
  checki "no outstanding" 0 (Runner.outstanding s.env)

let test_in_cs_failure_then_recovery_forgets_token () =
  (* A node dies inside its CS and later recovers: its volatile state
     (including token_here) is gone, so it must not resurrect the token
     that the survivors regenerated. *)
  let s = make ~cs:(Runner.Fixed 20.0) 3 in
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:5 ~at:1.0);
  Runner.schedule_faults s.env [ Runner.Faults.at 8.0 5 ~recover_after:50.0 () ];
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:2 ~at:30.0);
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:5 ~at:120.0);
  quiesce s;
  assert_safe s;
  checki "one token at the end" 1
    (List.length (Opencube_algo.token_holders s.algo));
  (* 5 entered before dying, 2 after regeneration, 5 again after its
     recovery and reconnection. *)
  checki "three entries" 3 (Runner.cs_entries s.env)

let test_faults_under_random_delays () =
  (* Non-FIFO delays combined with failures and recovery. *)
  let n = 16 in
  let env =
    Runner.make_env ~seed:51 ~n
      ~delay:(Ocube_net.Network.Uniform { lo = 0.2; hi = 2.0 })
      ~cs:(Runner.Fixed 1.0) ()
  in
  let algo =
    Opencube_algo.create ~net:(Runner.net env)
      ~callbacks:(Runner.callbacks env)
      ~config:(Opencube_algo.default_config ~p:4)
  in
  Runner.attach env (Opencube_algo.instance algo);
  let arrivals =
    Runner.Arrivals.poisson ~rng:(Runner.rng env) ~n ~rate_per_node:0.005
      ~horizon:1200.0
  in
  Runner.run_arrivals env arrivals;
  let faults =
    Runner.Faults.random ~rng:(Runner.rng env) ~n ~count:5 ~start:100.0
      ~spacing:200.0 ~recover_after:(Some 80.0) ()
  in
  Runner.schedule_faults env faults;
  Runner.run_to_quiescence env;
  checki "violations" 0 (Runner.violations env);
  checki "no outstanding" 0 (Runner.outstanding env)

let test_randomized_fault_schedules_property () =
  (* Property-style sweep: many random (arrival, failure) schedules in
     hardened mode must all be safe and serve every surviving request. *)
  for seed = 200 to 215 do
    let p = 3 + (seed mod 2) in
    let n = 1 lsl p in
    let s = make ~seed ~cs:(Runner.Fixed 1.0) p in
    let arrivals =
      Runner.Arrivals.poisson ~rng:(Runner.rng s.env) ~n ~rate_per_node:0.008
        ~horizon:900.0
    in
    Runner.run_arrivals s.env arrivals;
    let faults =
      Runner.Faults.random ~rng:(Runner.rng s.env) ~n ~count:4 ~start:80.0
        ~spacing:200.0
        ~recover_after:(if seed mod 3 = 0 then None else Some 70.0)
        ()
    in
    Runner.schedule_faults s.env faults;
    (try Runner.run_to_quiescence s.env
     with Runner.Stalled m -> Alcotest.failf "seed %d stalled: %s" seed m);
    checki (Printf.sprintf "violations (seed %d)" seed) 0
      (Runner.violations s.env);
    checki
      (Printf.sprintf "outstanding (seed %d)" seed)
      0
      (Runner.outstanding s.env)
  done

let test_seed_sweep_hardened_safety () =
  (* 50 independent churn campaigns in hardened mode: zero violations and
     zero unserved requests across all of them. *)
  let total_failures = ref 0 in
  for seed = 1000 to 1049 do
    let p = 4 in
    let n = 1 lsl p in
    let s = make ~seed ~cs:(Runner.Fixed 1.0) p in
    let arrivals =
      Runner.Arrivals.poisson ~rng:(Runner.rng s.env) ~n ~rate_per_node:0.004
        ~horizon:2500.0
    in
    Runner.run_arrivals s.env arrivals;
    let faults =
      Runner.Faults.random ~rng:(Runner.rng s.env) ~n ~count:5 ~start:200.0
        ~spacing:400.0 ~recover_after:(Some 120.0) ()
    in
    Runner.schedule_faults s.env faults;
    total_failures := !total_failures + 5;
    (try Runner.run_to_quiescence s.env
     with Runner.Stalled m -> Alcotest.failf "seed %d stalled: %s" seed m);
    checki (Printf.sprintf "violations (seed %d)" seed) 0
      (Runner.violations s.env);
    checki (Printf.sprintf "unserved (seed %d)" seed) 0
      (Runner.outstanding s.env)
  done;
  checki "250 failures injected in total" 250 !total_failures

let test_stats_counters_plausible () =
  let s = make ~cs:(Runner.Fixed 1.0) 4 in
  Runner.schedule_faults s.env [ Runner.Faults.at 0.5 8 ~recover_after:30.0 () ];
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:9 ~at:1.0);
  quiesce s;
  let st = Opencube_algo.stats s.algo in
  checkb "searches >= 1 (asker + recovery)" true (st.searches_started >= 2);
  checkb "probes consistent with searches" true
    (st.search_nodes_tested >= st.searches_started);
  checki "no token regenerated (root alive)" 0 st.token_regenerations;
  checki "no stale bounces in this scenario" 0 st.stale_tokens_bounced

(* A lender whose enquiry goes unanswered regenerates the token and serves
   the wish it has pending, through the same dispatch as token arrival
   (DESIGN.md §5.13). A lender has a wish pending only when a search
   without a mandate ends while its loan is out, and such a search starts
   only from a census's backoff; crafted messages drive 4 there on a p = 3
   cube. 0-3 die at 0.5, so 4's request for 5 is lost and its search
   (started by an anomaly) finds every ring silent; a crafted
   token-exists reply aborts its census (backoff 3.375 from 6.5); a
   crafted token(nil) makes 4 lend to 5 at 8; the restarted search finds
   5 (holder) at 11.875 and ends, and 4's queued wish sends its request
   to 5. 5 dies at 14; the enquiry of 16 goes unanswered, and at 18.1 4
   regenerates and enters its CS. *)
let test_lender_regeneration_serves_wish () =
  let s = make ~cs:(Runner.Fixed 100.0) 3 in
  let net = Runner.net s.env in
  let rid5 = { Types.source = 5; seq = 0 } in
  Runner.schedule_faults s.env
    (Runner.Faults.at 14.0 5 ()
    :: List.map (fun k -> Runner.Faults.at 0.5 k ()) [ 0; 1; 2; 3 ]);
  Runner.submit s.env 5;
  Runner.run ~until:2.0 s.env;
  Types.Net.send net ~src:6 ~dst:4 (Types.Message.Anomaly { rid = rid5 });
  Runner.run ~until:5.5 s.env;
  Types.Net.send net ~src:6 ~dst:4
    (Types.Message.Census_reply { round = 1; reply = Types.Token_exists });
  Runner.run ~until:7.0 s.env;
  Types.Net.send net ~src:6 ~dst:4
    (Types.Message.Token { lender = None; rid = Some rid5 });
  Runner.run ~until:7.5 s.env;
  Runner.submit s.env 4;
  Runner.run ~until:12.0 s.env;
  checkb "5 borrows from 4" true (Opencube_algo.in_cs s.algo 5);
  checkb "4 waits on 5 with its own wish" true
    (Opencube_algo.father s.algo 4 = Some 5 && Opencube_algo.is_asking s.algo 4);
  Runner.run ~until:18.0 s.env;
  checkb "no regeneration before the enquiry's answer wait" false
    (Opencube_algo.in_cs s.algo 4);
  Runner.run ~until:18.2 s.env;
  checki "one regeneration" 1 (Opencube_algo.stats s.algo).token_regenerations;
  checkb "the pending wish is served" true (Opencube_algo.in_cs s.algo 4);
  checkb "4 holds the token" true (Opencube_algo.token_holders s.algo = [ 4 ])

(* --- token arrival (PROTOCOL.md §4, the token-in-hand table) ------------- *)

(* A crafted token reaches a node in each state that the stale-token guard
   and the token-in-hand dispatch tell apart. [wishes] are issued at t = 0
   on a fresh p = 3 cube with a CS of 100: a wish of 0 puts the holder in
   its CS, so 1's request waits in 0's queue, and 4 proxies for 5 (dist 1,
   below 4's power 2); without it, 0 lends to 1 at once. The token is sent
   at 3.5, once everything else has settled, and lands at 4.5; the checks
   read the node half a δ later, before any reply arrives and before the
   first custody query (at 5). *)
let test_token_arrival () =
  let rid source seq = Some { Types.source; seq } in
  let case label ~wishes ~src ~dst ~lender ~rid ~counts ~holders ~father
      ~asking =
    let s = make ~cs:(Runner.Fixed 100.0) ~trace:true 3 in
    List.iter (Runner.submit s.env) wishes;
    Runner.run ~until:3.5 s.env;
    Types.Net.send (Runner.net s.env) ~src ~dst
      (Types.Message.Token { lender; rid });
    Runner.run ~until:5.0 s.env;
    let st = Opencube_algo.stats s.algo in
    let label what = Printf.sprintf "%s: %s" label what in
    Alcotest.(check (triple int int int))
      (label "bounced, unexpected, destroyed") counts
      (st.stale_tokens_bounced, st.unexpected_tokens, st.tokens_destroyed);
    Alcotest.(check (list int))
      (label "holders") holders
      (Opencube_algo.token_holders s.algo);
    Alcotest.(check (option int))
      (label "father") father
      (Opencube_algo.father s.algo dst);
    checkb (label "asking") asking (Opencube_algo.is_asking s.algo dst);
    s
  in
  let s =
    case "own grant" ~wishes:[ 0; 1 ] ~src:2 ~dst:1 ~lender:(Some 2)
      ~rid:(rid 1 0) ~counts:(0, 0, 0) ~holders:[ 0; 1 ] ~father:(Some 2)
      ~asking:true
  in
  checkb "own grant: in CS" true (Opencube_algo.in_cs s.algo 1);
  let s =
    case "ownerless grant for another rid" ~wishes:[ 0; 1 ] ~src:2 ~dst:1
      ~lender:None ~rid:(rid 1 7) ~counts:(0, 0, 0) ~holders:[ 0; 1 ]
      ~father:None ~asking:true
  in
  checkb "ownerless grant: in CS" true (Opencube_algo.in_cs s.algo 1);
  (* The grant's rid is remembered as served: an enquiry about it hears
     token-sent, not token-lost. *)
  let served = { Types.source = 1; seq = 7 } in
  Types.Net.send (Runner.net s.env) ~src:3 ~dst:1
    (Types.Message.Enquiry { rid = served });
  Runner.run ~until:6.5 s.env;
  checkb "ownerless grant: its rid answers token-sent" true
    (List.exists
       (fun (e : Runner.entry) ->
         match e.step with
         | Runner.Send
             {
               dst = 3;
               msg = Types.Message.Enquiry_answer { rid; answer = Types.Token_sent };
             } ->
           e.node = 1 && rid = served
         | _ -> false)
       (Runner.trace s.env));
  let s =
    case "proxy, lender nil" ~wishes:[ 0; 5 ] ~src:0 ~dst:4 ~lender:None
      ~rid:(rid 5 0) ~counts:(0, 0, 0) ~holders:[ 0 ] ~father:None
      ~asking:true
  in
  Runner.run ~until:5.6 s.env;
  checkb "proxy lend: 5 borrows from 4" true
    (Opencube_algo.in_cs s.algo 5 && Opencube_algo.father s.algo 5 = Some 4);
  let s =
    case "proxy pass-on" ~wishes:[ 0; 5 ] ~src:2 ~dst:4 ~lender:(Some 2)
      ~rid:(rid 5 0) ~counts:(0, 0, 0) ~holders:[ 0 ] ~father:(Some 2)
      ~asking:false
  in
  Runner.run ~until:5.6 s.env;
  checkb "pass-on: 5 holds 2's token" true
    (Opencube_algo.in_cs s.algo 5 && Opencube_algo.father s.algo 5 = Some 4);
  ignore
    (case "loan return" ~wishes:[ 1 ] ~src:1 ~dst:0 ~lender:None ~rid:None
       ~counts:(0, 0, 0) ~holders:[ 0; 1 ] ~father:None ~asking:false);
  ignore
    (case "ownerless adopt" ~wishes:[ 0 ] ~src:6 ~dst:5 ~lender:None ~rid:None
       ~counts:(0, 1, 0) ~holders:[ 0; 5 ] ~father:None ~asking:false);
  ignore
    (case "own lent token routed back" ~wishes:[ 0 ] ~src:6 ~dst:5
       ~lender:(Some 5) ~rid:None ~counts:(0, 1, 0) ~holders:[ 0; 5 ]
       ~father:(Some 4) ~asking:false);
  ignore
    (case "stale grant, no mandate" ~wishes:[ 0 ] ~src:2 ~dst:5
       ~lender:(Some 2) ~rid:(rid 5 0) ~counts:(1, 0, 0) ~holders:[ 0 ]
       ~father:(Some 4) ~asking:false);
  ignore
    (case "stale grant, wrong rid" ~wishes:[ 0; 1 ] ~src:2 ~dst:1
       ~lender:(Some 2) ~rid:(rid 1 7) ~counts:(1, 0, 0) ~holders:[ 0 ]
       ~father:(Some 0) ~asking:true);
  ignore
    (case "owned duplicate at a holder" ~wishes:[ 0 ] ~src:2 ~dst:0
       ~lender:(Some 2) ~rid:None ~counts:(1, 0, 0) ~holders:[ 0 ]
       ~father:None ~asking:true);
  ignore
    (case "ownerless duplicate at a holder" ~wishes:[ 0 ] ~src:2 ~dst:0
       ~lender:None ~rid:None ~counts:(0, 0, 1) ~holders:[ 0 ] ~father:None
       ~asking:true)

(* --- custody query before search_father (DESIGN.md §5) ------------------ *)

(* Saturated and fault-free with Section 5 armed: N = 256, Poisson wishes
   at 0.3 per delta against a capacity of about 0.22, pooled over four
   seeds. Queueing alone outlasts the 2·pmax·δ deadline here (the longest
   wait is ~100δ against 16δ); before the custody query these runs
   started 317 father searches and sent 8.7x the messages of the control.
   Now fathers confirm custody, so no search starts, and the backlog
   leases (DESIGN.md §5.15) keep the fault machinery within 2.25x of the
   fault_tolerance = false control (2.36x before them; the bound was 3x),
   with fewer than 7 custody messages (queries, answers, transit checks)
   per CS entry (8.9 before them). Most of what remains is each asker's
   first query, which the paper's deadline fixes. *)
let test_custody_saturated_fault_free () =
  let p = 8 in
  let n = 1 lsl p in
  let run ~ft seed =
    let env =
      Runner.make_env ~seed ~n ~delay:(Ocube_net.Network.Constant 1.0)
        ~cs:(Runner.Fixed 1.0) ()
    in
    let config =
      { (Opencube_algo.default_config ~p) with fault_tolerance = ft }
    in
    let algo =
      Opencube_algo.create ~net:(Runner.net env)
        ~callbacks:(Runner.callbacks env) ~config
    in
    Runner.attach env (Opencube_algo.instance algo);
    Runner.run_source env
      (Ocube_workload.Source.poisson ~rng:(Runner.rng env) ~n ~rate:0.3
         ~horizon:100.0);
    Runner.run_to_quiescence env;
    checki "violations" 0 (Runner.violations env);
    checki "all served" (Runner.issued env) (Runner.cs_entries env);
    let by_cat = Runner.messages_by_category env in
    let count cat = Option.value ~default:0 (List.assoc_opt cat by_cat) in
    ( Runner.messages_sent env,
      Runner.cs_entries env,
      Opencube_algo.stats algo,
      count "custody" + count "custody_answer" )
  in
  let pool ~ft =
    List.fold_left
      (fun (m, e, searches, queries, custody) seed ->
        let m', e', st, c' = run ~ft seed in
        ( m + m',
          e + e',
          searches + st.Opencube_algo.searches_started,
          queries + st.Opencube_algo.custody_queries,
          custody + c' ))
      (0, 0, 0, 0, 0) [ 1; 2; 3; 4 ]
  in
  let m_ft, e_ft, searches, queries, custody = pool ~ft:true in
  let m_off, e_off, _, off_queries, _ = pool ~ft:false in
  checki "same entries" e_off e_ft;
  checki "no custody query with Section 5 off" 0 off_queries;
  checkb "custody queries were sent" true (queries > 0);
  checki "no search" 0 searches;
  let per m e = float_of_int m /. float_of_int e in
  checkb "msgs/request within 2.25x of the control" true
    (per m_ft e_ft <= 2.25 *. per m_off e_off);
  checkb "fewer than 7 custody messages per CS entry" true
    (per custody e_ft < 7.0)

(* No search behind a live queue: fault-free, Section 5 armed, N = 256 at
   0.6 wishes per delta, twice the load above. Waits outlast pmax
   deadlines (pmax·D = 8·16δ = 128δ), where the custody cap used to send
   every asker to search_father (9 to 66 searches per seed). Custody stays
   confirmed and no wait-for probe walk finds a cycle, so none starts. *)
let test_no_search_behind_live_queue () =
  let p = 8 in
  let n = 1 lsl p in
  let deadline = 2.0 *. float_of_int p in
  List.iter
    (fun seed ->
      let env =
        Runner.make_env ~seed ~n ~delay:(Ocube_net.Network.Constant 1.0)
          ~cs:(Runner.Fixed 1.0) ()
      in
      let algo =
        Opencube_algo.create ~net:(Runner.net env)
          ~callbacks:(Runner.callbacks env)
          ~config:(Opencube_algo.default_config ~p)
      in
      Runner.attach env (Opencube_algo.instance algo);
      Runner.run_source env
        (Ocube_workload.Source.poisson ~rng:(Runner.rng env) ~n ~rate:0.6
           ~horizon:100.0);
      Runner.run_to_quiescence env;
      checki "violations" 0 (Runner.violations env);
      checki "all served" (Runner.issued env) (Runner.cs_entries env);
      checkb "waits outlast pmax deadlines" true
        (Ocube_stats.Summary.max_value (Runner.wait_stats env)
        > float_of_int p *. deadline);
      let st = Opencube_algo.stats algo in
      checkb "walks were sent" true (st.Opencube_algo.probe_walks > 0);
      checki "no search" 0 st.searches_started)
    [ 1; 3 ]

(* The father dies while holding the child's request: the child's search
   starts at the paper's deadline, 2·pmax·δ after the request left. At
   p = 5 the custody query goes out one answer wait before the deadline
   and goes unanswered; it is the only fault-overhead message so far. (At
   p = 3 and 4 that would be before the longest fault-free grant, so the
   query waits for it and the deadline moves out: the detection-bound case
   below.) At p = 1 the deadline (2δ) has no room for a query and the
   child suspects at the deadline directly. *)
let dead_father_case ~p ~kill_at ~queries () =
  let s = make ~cs:(Runner.Fixed 50.0) p in
  Runner.submit s.env 0;
  (* 0 holds the token in a long CS; 1's request reaches it at t=2 and
     waits in its queue; 0 dies at [kill_at]. *)
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:1 ~at:1.0);
  Runner.schedule_faults s.env [ Runner.Faults.at kill_at 0 () ];
  let deadline = 1.0 +. (2.0 *. float_of_int p *. 1.0) in
  Runner.run ~until:(deadline -. 0.01) s.env;
  let st = Opencube_algo.stats s.algo in
  checki "custody queries to the dead father" queries st.custody_queries;
  checki "custody queries count as fault overhead" queries
    (Runner.fault_overhead_messages s.env);
  checki "no search before the deadline" 0 st.searches_started;
  Runner.run ~until:(deadline +. 1e-6) s.env;
  checkb "search started by the deadline" true
    (Opencube_algo.searching s.algo 1);
  quiesce s;
  assert_safe s;
  checki "the wish is served after regeneration" 2 (Runner.cs_entries s.env)

let test_custody_dead_father_deadline =
  dead_father_case ~p:5 ~kill_at:3.0 ~queries:1

let test_custody_dead_father_deadline_p1 =
  dead_father_case ~p:1 ~kill_at:2.5 ~queries:0

(* A waiting cycle: 1 and 2 are each other's father and each holds the
   other's request in its queue, so both always answer "held". The cycle
   is built by injecting an anomaly (which starts a search) and a forged
   ok answer naming the other node as father. A search made each edge, so
   the first "held" answer starts a wait-for probe walk, 1 -> 2 -> 1 (or
   2 -> 1 -> 2): it comes back within one round trip (2δ) and its
   initiator searches. *)
let waiting_cycle () =
  let p = 3 in
  let s = make ~cs:(Runner.Fixed 1000.0) p in
  Runner.submit s.env 0;
  Runner.submit s.env 1;
  Runner.submit s.env 2;
  Runner.run ~until:1.5 s.env;
  let net = Runner.net s.env in
  let rid source = { Types.source; seq = 0 } in
  let adopt ~node ~father =
    Types.Net.send net ~src:0 ~dst:node (Types.Message.Anomaly { rid = rid node });
    Types.Net.send net ~src:father ~dst:node
      (Types.Message.Test_answer { d = p; answer = Types.Father_ok })
  in
  adopt ~node:1 ~father:2;
  adopt ~node:2 ~father:1;
  Runner.run ~until:4.0 s.env;
  checkb "1 -> 2" true (Opencube_algo.father s.algo 1 = Some 2);
  checkb "2 -> 1" true (Opencube_algo.father s.algo 2 = Some 1);
  s

let test_probe_breaks_waiting_cycle () =
  let s = waiting_cycle () in
  let stats () = Opencube_algo.stats s.algo in
  let searches0 = (stats ()).searches_started in
  let engine = Runner.engine s.env in
  while (stats ()).custody_confirmed = 0 && Ocube_sim.Engine.step engine do
    ()
  done;
  let first_held = Runner.now s.env in
  checkb "a held answer came" true ((stats ()).custody_confirmed > 0);
  checki "no search before the walk" searches0 (stats ()).searches_started;
  Runner.run ~until:(first_held +. 2.0) s.env;
  let st = stats () in
  checkb "a walk left" true (st.probe_walks >= 1);
  checkb "the walk found the cycle" true (st.cycles_detected >= 1);
  checkb "its initiator searched" true (st.searches_started > searches0);
  quiesce s;
  assert_safe s;
  checki "every wish served" 3 (Runner.cs_entries s.env)

let test_describe () =
  let s = make 3 in
  let d = Opencube_algo.describe s.algo 0 in
  checkb "describe mentions token" true (Tutil.contains d "token=true");
  checkb "describe mentions father nil" true (Tutil.contains d "father=nil");
  checkb "fields are single-spaced" false (Tutil.contains d "  ");
  checkb "no walk, no transit" true
    (Tutil.contains d "walk_out=false transits=0");
  let d5 = Opencube_algo.describe s.algo 5 in
  checkb "node 5 dump" true (Tutil.contains d5 "node 5: father=4");
  (* 7's request climbs through 6 and 4 as transit nodes (the first half
     of their b-transformations); each keeps a transit record. *)
  Runner.submit s.env 7;
  quiesce s;
  checkb "transit node 6 counts its record" true
    (Tutil.contains (Opencube_algo.describe s.algo 6) "transits=1");
  checkb "no loan, no watch" true
    (Tutil.contains (Opencube_algo.describe s.algo 0) "loan=- watch=-");
  (* A lender mid-loan: 0 lends to 1 at t = 1 and watches for the return
     (2δ + e = 3); at t = 4 it enquires and waits for the answer, which
     (1 is still in its CS) re-arms the return watch at t = 6. *)
  let s = make ~cs:(Runner.Fixed 40.0) 3 in
  Runner.submit s.env 1;
  let lender_at time =
    Runner.run ~until:time s.env;
    Opencube_algo.describe s.algo 0
  in
  checkb "the loan and its return watch" true
    (Tutil.contains (lender_at 1.5) "loan=1#0/direct/acks=0 watch=return");
  checkb "the enquiry's answer watch" true
    (Tutil.contains (lender_at 4.5) "loan=1#0/direct/acks=0 watch=answer");
  checkb "back to the return watch" true
    (Tutil.contains (lender_at 6.5) "watch=return");
  (* A wait-for walk out of a waiting cycle shows at its initiator. *)
  let s = waiting_cycle () in
  let engine = Runner.engine s.env in
  while
    (Opencube_algo.stats s.algo).probe_walks = 0
    && Ocube_sim.Engine.step engine
  do
    ()
  done;
  checkb "a walk is out" true
    (List.exists
       (fun i -> Tutil.contains (Opencube_algo.describe s.algo i) "walk_out=true")
       [ 1; 2 ])

(* --- backlog leases (DESIGN.md §5.15) ------------------------------------ *)

(* The detection bound. Node 0 holds the token in a long CS; [k] of its
   sons queue requests at it, then son 16 does. 16's first custody query
   leaves D − 2.1δ after its request (p = 5: D = 10δ) and is answered
   "held" with k + 1 requests ahead (the k queued before it and 0's CS).
   0 then dies. 16 sleeps its lease, max(D − 2.1δ, (k+1)·(e + 2δ), its
   wait so far), asks again, hears nothing and searches one answer wait
   later: not before, and by, that bound after the held answer. *)
let test_lease_detection_bound () =
  let p = 5 in
  let deadline = 2.0 *. float_of_int p and answer_wait = 2.1 in
  let slot = 1.0 +. 2.0 (* e + 2δ, with e = 1 *) in
  List.iter
    (fun k ->
      let s = make ~cs:(Runner.Fixed 50.0) p in
      Runner.submit s.env 0;
      let ahead = List.filteri (fun i _ -> i < k) [ 1; 2; 4; 8 ] in
      Runner.run_arrivals s.env (Runner.Arrivals.burst ~nodes:ahead ~at:1.0);
      let sent = 1.5 in
      Runner.run_arrivals s.env (Runner.Arrivals.single ~node:16 ~at:sent);
      let answered = sent +. (deadline -. answer_wait) +. 2.0 in
      Runner.schedule_faults s.env [ Runner.Faults.at (answered +. 0.5) 0 () ];
      let lease =
        Float.max (deadline -. answer_wait)
          (Float.max (float_of_int (k + 1) *. slot) (answered -. sent))
      in
      let bound = answered +. lease +. answer_wait in
      Runner.run ~until:(bound -. 0.05) s.env;
      let label what = Printf.sprintf "k = %d: %s" k what in
      checkb (label "no search while the lease runs") false
        (Opencube_algo.searching s.algo 16);
      checkb (label "held answers came") true
        ((Opencube_algo.stats s.algo).custody_confirmed >= k + 1);
      Runner.run ~until:(bound +. 1e-6) s.env;
      checkb (label "search by the bound") true
        (Opencube_algo.searching s.algo 16);
      checkb (label "within b·(e + 2δ) + D + 2.1δ") true
        (bound
        <= answered +. (float_of_int (k + 1) *. slot) +. deadline +. answer_wait
           +. (answered -. sent));
      quiesce s;
      assert_safe s;
      checki (label "every wish served") (k + 2) (Runner.cs_entries s.env))
    [ 0; 4 ]

(* At p = 3 the query would leave at D − 2.1δ = 3.9δ, before the longest
   fault-free grant (pmax + 2 = 5 hops, DESIGN.md §5bis). It waits for
   that grant instead, so uncontended requests from every node draw no
   custody query, and a dead father is suspected 5δ + 2.1δ after the
   request left. *)
let test_first_query_after_longest_grant () =
  let s = make ~cs:(Runner.Fixed 1.0) 3 in
  Runner.run_arrivals s.env (Runner.Arrivals.serial_each_node_once ~n:8 ~gap:20.0);
  quiesce s;
  assert_safe s;
  checki "every wish served" 8 (Runner.cs_entries s.env);
  checki "no custody query without contention" 0
    (Opencube_algo.stats s.algo).custody_queries;
  let s = make ~cs:(Runner.Fixed 50.0) 3 in
  Runner.submit s.env 0;
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:1 ~at:1.0);
  Runner.schedule_faults s.env [ Runner.Faults.at 3.0 0 () ];
  let suspected = 1.0 +. 5.0 +. 2.1 in
  Runner.run ~until:(suspected -. 0.05) s.env;
  checkb "no search before the query goes unanswered" false
    (Opencube_algo.searching s.algo 1);
  checki "one query" 1 (Opencube_algo.stats s.algo).custody_queries;
  Runner.run ~until:(suspected +. 1e-6) s.env;
  checkb "search once it does" true (Opencube_algo.searching s.algo 1);
  quiesce s;
  assert_safe s

(* A transit node's failed check reports to whoever asked it, not to the
   node the request came from. 13's request climbs through proxy 12 and
   transit node 8 to node 0, which holds the token in a long CS; 8
   records the transit with origin 12. Then 12 and 0 crash, and 13 asks
   8 about its request. 8 vouches and checks 0; the check goes
   unanswered, so 8 drops its record and tells 13, which searches at
   once: one hop, one answer wait and one hop after its query, before
   its own query to the dead 12 would have run out (at 11δ). *)
let test_transit_report_reaches_asker () =
  let s = make ~cs:(Runner.Fixed 50.0) 5 in
  Runner.submit s.env 0;
  Runner.run_arrivals s.env (Runner.Arrivals.single ~node:13 ~at:1.0);
  let asked = 4.5 in
  Runner.schedule_faults s.env
    [ Runner.Faults.at asked 12 (); Runner.Faults.at asked 0 () ];
  Runner.run ~until:asked s.env;
  checkb "8 keeps a transit record" true
    (Tutil.contains (Opencube_algo.describe s.algo 8) "transits=1");
  Types.Net.send (Runner.net s.env) ~src:13 ~dst:8
    (Types.Message.Custody { rid = { Types.source = 13; seq = 0 } });
  let reported = asked +. 1.0 +. 2.1 +. 1.0 in
  Runner.run ~until:(reported -. 0.05) s.env;
  checkb "no search before the report" false
    (Opencube_algo.searching s.algo 13);
  Runner.run ~until:(reported +. 1e-6) s.env;
  checkb "the asker searches on the report" true
    (Opencube_algo.searching s.algo 13);
  checkb "8 dropped the stale record" true
    (Tutil.contains (Opencube_algo.describe s.algo 8) "transits=0");
  quiesce s;
  assert_safe s

let suite =
  [
    Alcotest.test_case "borrower dies in CS -> regeneration" `Quick
      test_borrower_dies_in_cs;
    Alcotest.test_case "borrower dies before token arrives" `Quick
      test_borrower_dies_before_receiving_token;
    Alcotest.test_case "ill-founded suspicion (still in CS)" `Quick
      test_enquiry_in_cs_is_ill_founded;
    Alcotest.test_case "transit node dies -> search + re-request" `Quick
      test_transit_chain_failure_loses_request;
    Alcotest.test_case "paper Section 5 example (9 fails; 10,12 search)"
      `Quick test_paper_section5_example;
    Alcotest.test_case "recovery + anomaly repair (paper example)" `Quick
      test_recovery_and_anomaly_repair;
    Alcotest.test_case "concurrent suspicions tie-break (Fig. 13)" `Quick
      test_concurrent_suspicion_tie_break;
    Alcotest.test_case "idle root failure" `Quick test_root_failure_idle_system;
    Alcotest.test_case "random faults with recovery" `Slow
      test_random_faults_with_recovery;
    Alcotest.test_case "random faults without recovery" `Slow
      test_random_faults_without_recovery;
    Alcotest.test_case "random faults on a 32-node cube" `Slow
      test_larger_cube_random_faults;
    Alcotest.test_case "search_father stays local" `Quick
      test_search_cost_is_local;
    Alcotest.test_case "searcher dies mid-search" `Quick
      test_searcher_dies_mid_search;
    Alcotest.test_case "census winner dies before regenerating" `Quick
      test_census_node_dies_before_regenerating;
    Alcotest.test_case "two concurrent failures" `Quick
      test_two_concurrent_failures;
    Alcotest.test_case "repeated fail/recover of one node" `Quick
      test_repeated_fail_recover_same_node;
    Alcotest.test_case "holder dies with queued requests" `Quick
      test_idle_holder_dies_with_queued_requests;
    Alcotest.test_case "recovered node forgets its token" `Quick
      test_in_cs_failure_then_recovery_forgets_token;
    Alcotest.test_case "failures under non-FIFO delays" `Quick
      test_faults_under_random_delays;
    Alcotest.test_case "16 randomized fault schedules" `Slow
      test_randomized_fault_schedules_property;
    Alcotest.test_case "fault statistics are plausible" `Quick
      test_stats_counters_plausible;
    Alcotest.test_case "50-seed hardened churn sweep (250 failures)" `Slow
      test_seed_sweep_hardened_safety;
    Alcotest.test_case "describe dumps node state" `Quick test_describe;
    Alcotest.test_case "custody: saturated fault-free, no searches" `Quick
      test_custody_saturated_fault_free;
    Alcotest.test_case "custody: dead father found by the deadline" `Quick
      test_custody_dead_father_deadline;
    Alcotest.test_case "custody: p = 1 suspects at the deadline" `Quick
      test_custody_dead_father_deadline_p1;
    Alcotest.test_case "probe breaks a waiting cycle" `Quick
      test_probe_breaks_waiting_cycle;
    Alcotest.test_case "no search behind a live queue" `Quick
      test_no_search_behind_live_queue;
    Alcotest.test_case "lease: dead busy father within the bound" `Quick
      test_lease_detection_bound;
    Alcotest.test_case "lease: first query after the longest grant" `Quick
      test_first_query_after_longest_grant;
    Alcotest.test_case "lease: transit report reaches the asker" `Quick
      test_transit_report_reaches_asker;
    Alcotest.test_case "token arrival in every node state" `Quick
      test_token_arrival;
    Alcotest.test_case "lender regeneration serves a pending wish" `Quick
      test_lender_regeneration_serves_wish;
  ]
