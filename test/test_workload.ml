(* Tests for workload generation and the runner. *)

module Arrivals = Ocube_workload.Arrivals
module Faults = Ocube_workload.Faults
module Rng = Ocube_sim.Rng
open Ocube_mutex

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- arrivals ------------------------------------------------------------- *)

let is_sorted l =
  let rec go = function
    | (a, _) :: ((b, _) :: _ as tl) -> a <= b && go tl
    | _ -> true
  in
  go l

let test_poisson_sorted_and_bounded () =
  let rng = Rng.create 1 in
  let a = Arrivals.poisson ~rng ~n:8 ~rate_per_node:0.1 ~horizon:500.0 in
  checkb "sorted" true (is_sorted a);
  List.iter
    (fun (t, node) ->
      checkb "time in horizon" true (t >= 0.0 && t < 500.0);
      checkb "node in range" true (node >= 0 && node < 8))
    a

let test_poisson_rate_roughly_right () =
  let rng = Rng.create 2 in
  let a = Arrivals.poisson ~rng ~n:10 ~rate_per_node:0.05 ~horizon:10_000.0 in
  (* expectation: 10 * 0.05 * 10000 = 5000 *)
  let c = Arrivals.count a in
  checkb (Printf.sprintf "count %d near 5000" c) true (c > 4600 && c < 5400)

let test_poisson_deterministic () =
  let a = Arrivals.poisson ~rng:(Rng.create 3) ~n:4 ~rate_per_node:0.1 ~horizon:100.0 in
  let b = Arrivals.poisson ~rng:(Rng.create 3) ~n:4 ~rate_per_node:0.1 ~horizon:100.0 in
  checkb "same schedule from same seed" true (a = b)

let test_hotspot_skew () =
  let rng = Rng.create 4 in
  let a =
    Arrivals.hotspot ~rng ~n:8 ~hot:[ 0 ] ~hot_rate:0.1 ~cold_rate:0.001
      ~horizon:5000.0
  in
  let hot = List.length (List.filter (fun (_, n) -> n = 0) a) in
  let cold = List.length (List.filter (fun (_, n) -> n <> 0) a) in
  checkb
    (Printf.sprintf "hot %d >> cold-per-node %d" hot (cold / 7))
    true
    (hot > 10 * (cold / 7))

let test_serial_each_node_once () =
  let a = Arrivals.serial_each_node_once ~n:4 ~gap:10.0 in
  Alcotest.(check (list (pair (float 1e-9) int)))
    "schedule"
    [ (10.0, 0); (20.0, 1); (30.0, 2); (40.0, 3) ]
    a

let test_merge_sorts () =
  let a = Arrivals.merge [ (5.0, 1) ] [ (1.0, 2); (9.0, 3) ] in
  checkb "sorted" true (is_sorted a);
  checki "count" 3 (Arrivals.count a)

(* --- faults ---------------------------------------------------------------- *)

let test_faults_random_spacing () =
  let rng = Rng.create 5 in
  let f =
    Faults.random ~rng ~n:8 ~count:10 ~start:100.0 ~spacing:50.0
      ~recover_after:(Some 20.0) ()
  in
  checki "count" 10 (Faults.count f);
  List.iteri
    (fun k e ->
      Alcotest.(check (float 1e-9))
        "spacing"
        (100.0 +. (float_of_int k *. 50.0))
        e.Faults.at)
    f

let test_faults_avoid () =
  let rng = Rng.create 6 in
  let f =
    Faults.random ~rng ~n:4 ~count:50 ~start:0.0 ~spacing:1.0 ~recover_after:None
      ~avoid:[ 0; 1 ] ()
  in
  List.iter
    (fun e -> checkb "avoided" true (e.Faults.node = 2 || e.Faults.node = 3))
    f

let test_faults_zero_count () =
  let rng = Rng.create 9 in
  let f =
    Faults.random ~rng ~n:8 ~count:0 ~start:0.0 ~spacing:1.0 ~recover_after:None ()
  in
  checki "empty schedule" 0 (Faults.count f)

let test_faults_all_nodes_avoided_rejected () =
  let rng = Rng.create 9 in
  Alcotest.check_raises "no candidate left"
    (Invalid_argument "Faults.random: no node left to fail") (fun () ->
      ignore
        (Faults.random ~rng ~n:3 ~count:1 ~start:0.0 ~spacing:1.0
           ~recover_after:None ~avoid:[ 0; 1; 2 ] ()));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Faults.random: negative count") (fun () ->
      ignore
        (Faults.random ~rng ~n:3 ~count:(-1) ~start:0.0 ~spacing:1.0
           ~recover_after:None ()))

let test_faults_single_candidate_repeats () =
  (* With one candidate left, the no-adjacent-duplicate rule must yield
     rather than spin forever. *)
  let rng = Rng.create 9 in
  let f =
    Faults.random ~rng ~n:4 ~count:5 ~start:0.0 ~spacing:1.0 ~recover_after:None
      ~avoid:[ 0; 1; 2 ] ()
  in
  checki "count" 5 (Faults.count f);
  List.iter (fun e -> checki "only candidate" 3 e.Faults.node) f

let test_faults_no_consecutive_repeat () =
  let rng = Rng.create 7 in
  let f =
    Faults.random ~rng ~n:8 ~count:100 ~start:0.0 ~spacing:1.0 ~recover_after:None ()
  in
  let rec go = function
    | a :: (b :: _ as tl) ->
      checkb "no immediate repeat" true (a.Faults.node <> b.Faults.node);
      go tl
    | _ -> ()
  in
  go f

(* --- runner ---------------------------------------------------------------- *)

let make_opencube ?(seed = 42) ?(cs = Runner.Fixed 2.0) p =
  let n = 1 lsl p in
  let env = Runner.make_env ~seed ~n ~delay:(Ocube_net.Network.Constant 1.0) ~cs () in
  let config = { (Opencube_algo.default_config ~p) with fault_tolerance = false } in
  let algo =
    Opencube_algo.create ~net:(Runner.net env) ~callbacks:(Runner.callbacks env)
      ~config
  in
  Runner.attach env (Opencube_algo.instance algo);
  env

let test_runner_backlog () =
  let env = make_opencube 3 in
  (* Three wishes at the same node: served one after the other. *)
  Runner.submit env 5;
  Runner.submit env 5;
  Runner.submit env 5;
  Runner.run_to_quiescence env;
  checki "issued counts resubmissions" 3 (Runner.issued env);
  checki "entries" 3 (Runner.cs_entries env);
  checki "outstanding" 0 (Runner.outstanding env)

let test_runner_wait_stats () =
  let env = make_opencube ~cs:(Runner.Fixed 5.0) 2 in
  Runner.run_arrivals env (Runner.Arrivals.burst ~nodes:[ 0; 1; 2; 3 ] ~at:1.0);
  Runner.run_to_quiescence env;
  let w = Runner.wait_stats env in
  checki "4 waits recorded" 4 (Ocube_stats.Summary.count w);
  (* The first (the root) waits 0; the last waits at least 3 CS durations. *)
  checkb "min wait ~0" true (Ocube_stats.Summary.min_value w < 0.5);
  checkb "max wait >= 15" true (Ocube_stats.Summary.max_value w >= 15.0)

let test_runner_exponential_cs () =
  let env =
    make_opencube ~cs:(Runner.Exponential { mean = 1.0; cap = 5.0 }) 3
  in
  let arrivals =
    Runner.Arrivals.poisson ~rng:(Runner.rng env) ~n:8 ~rate_per_node:0.05
      ~horizon:200.0
  in
  Runner.run_arrivals env arrivals;
  Runner.run_to_quiescence env;
  checki "violations" 0 (Runner.violations env);
  checki "outstanding" 0 (Runner.outstanding env)

let test_runner_wish_on_failed_node_dropped () =
  let n = 8 in
  let env = Runner.make_env ~seed:1 ~n ~delay:(Ocube_net.Network.Constant 1.0)
      ~cs:(Runner.Fixed 1.0) () in
  let config = Opencube_algo.default_config ~p:3 in
  let algo =
    Opencube_algo.create ~net:(Runner.net env) ~callbacks:(Runner.callbacks env)
      ~config
  in
  Runner.attach env (Opencube_algo.instance algo);
  Runner.schedule_faults env [ Runner.Faults.at 1.0 5 () ];
  Runner.run_arrivals env (Runner.Arrivals.single ~node:5 ~at:2.0);
  Runner.run_to_quiescence env;
  checki "nothing issued" 0 (Runner.issued env);
  checki "no entries" 0 (Runner.cs_entries env)

let run_traced seed =
  let n = 16 in
  let env = Runner.make_env ~seed ~n ~delay:(Ocube_net.Network.Uniform { lo = 0.2; hi = 2.0 })
      ~cs:(Runner.Exponential { mean = 1.0; cap = 4.0 }) ~trace:true () in
  let config = Opencube_algo.default_config ~p:4 in
  let algo =
    Opencube_algo.create ~net:(Runner.net env) ~callbacks:(Runner.callbacks env)
      ~config
  in
  Runner.attach env (Opencube_algo.instance algo);
  let arrivals =
    Runner.Arrivals.poisson ~rng:(Runner.rng env) ~n ~rate_per_node:0.01
      ~horizon:400.0
  in
  Runner.run_arrivals env arrivals;
  Runner.schedule_faults env
    [ Runner.Faults.at 100.0 5 ~recover_after:50.0 () ];
  Runner.run_to_quiescence env;
  (Runner.trace env, Runner.messages_sent env, Runner.cs_entries env)

let test_full_run_determinism () =
  (* Whole-system reproducibility: same seed, same everything - the full
     structured record (every send with its message, wish, CS entry and
     exit, fault and recovery, with its time), message count, entries -
     even with random delays, random CS durations and a failure. *)
  let t1, m1, e1 = run_traced 1234 in
  let t2, m2, e2 = run_traced 1234 in
  let sends =
    List.filter
      (fun e -> match e.Runner.step with Runner.Send _ -> true | _ -> false)
      t1
  in
  checki "the record holds every send" m1 (List.length sends);
  checkb "identical records" true (t1 = t2);
  checki "identical messages" m1 m2;
  checki "identical entries" e1 e2;
  let t3, _, _ = run_traced 1235 in
  checkb "different seed differs" true (t1 <> t3)

let test_runner_attach_twice_rejected () =
  let env = make_opencube 2 in
  Alcotest.check_raises "double attach"
    (Invalid_argument "Runner.attach: instance already attached") (fun () ->
      Runner.attach env
        {
          Types.algo_name = "dummy";
          request_cs = ignore;
          release_cs = ignore;
          on_recovered = ignore;
          snapshot_tree = (fun () -> None);
          token_holders = (fun () -> []);
          invariant_check = (fun () -> Ok ());
          repair_bound = 0.0;
        })

(* The progress watchdog, on a run that never grants and never drains:
   [run_to_quiescence] raises [Stalled], and the verdict gives the bound
   (16·((N + 2)·δ + c) with no repair term) and names the waiting wishes
   oldest first, eight of them and then how many more. *)
let test_runner_watchdog_names_waiting () =
  let env =
    Runner.make_env ~seed:1 ~n:16 ~delay:(Ocube_net.Network.Constant 1.0)
      ~cs:(Runner.Fixed 1.0) ()
  in
  Runner.attach env (Tutil.stalling_instance env);
  let node k = ((7 * k) + 3) mod 16 in
  Runner.run_arrivals env
    (List.init 10 (fun k -> (1.0 +. (0.5 *. float_of_int k), node k)));
  match Runner.run_to_quiescence env with
  | () -> Alcotest.fail "a run that never grants drained"
  | exception Runner.Stalled m ->
    checkb ("prefix: " ^ m) true
      (String.starts_with ~prefix:"liveness: no CS entry" m);
    checkb "one line" false (String.contains m '\n');
    checkb ("bound: " ^ m) true (Tutil.contains m "(bound 304.0)");
    checkb ("waiting nodes: " ^ m) true
      (String.ends_with m
         ~suffix:
           "10 wish(es) outstanding: 3@1.0 10@1.5 1@2.0 8@2.5 15@3.0 6@3.5 \
            13@4.0 4@4.5 +2 more")

(* --- open-loop sources ----------------------------------------------------- *)

module Source = Ocube_workload.Source

let drain src =
  let rec go acc =
    match src () with
    | Some a -> go (a :: acc)
    | None -> List.rev acc
  in
  go []

let check_source name mk =
  (* same seed, same stream *)
  let a = drain (mk (Rng.create 77)) in
  let b = drain (mk (Rng.create 77)) in
  checkb (name ^ " deterministic") true (a = b);
  checkb (name ^ " nonempty") true (a <> []);
  checkb (name ^ " monotone") true (is_sorted a);
  List.iter
    (fun (t, node) ->
      checkb (name ^ " time in horizon") true (t >= 0.0 && t < 300.0);
      checkb (name ^ " node in range") true (node >= 0 && node < 16))
    a;
  (* a drained source stays drained *)
  let s = mk (Rng.create 3) in
  ignore (drain s);
  checkb (name ^ " stays exhausted") true (s () = None)

let test_source_contracts () =
  check_source "poisson" (fun rng ->
      Source.poisson ~rng ~n:16 ~rate:0.5 ~horizon:300.0);
  check_source "bursty" (fun rng ->
      Source.bursty ~rng ~n:16 ~rate:0.3 ~burst:4.0 ~on_mean:10.0
        ~off_mean:30.0 ~horizon:300.0);
  check_source "zipf" (fun rng ->
      Source.zipf ~rng ~n:16 ~rate:0.5 ~s:1.2 ~horizon:300.0)

let test_source_poisson_rate () =
  let rng = Rng.create 12 in
  let arrivals =
    drain (Source.poisson ~rng ~n:8 ~rate:2.0 ~horizon:1000.0)
  in
  let count = float_of_int (List.length arrivals) in
  (* aggregate rate 2.0 over 1000 time units: ~2000 arrivals *)
  checkb "rate roughly right" true (count > 1600.0 && count < 2400.0)

let test_source_zipf_skew () =
  let rng = Rng.create 4 in
  let arrivals =
    drain (Source.zipf ~rng ~n:16 ~rate:2.0 ~s:1.4 ~horizon:500.0)
  in
  let hits = Array.make 16 0 in
  List.iter (fun (_, node) -> hits.(node) <- hits.(node) + 1) arrivals;
  checkb "node 0 is the hotspot" true
    (Array.for_all (fun c -> c <= hits.(0)) hits);
  checkb "tail nodes still get traffic" true (hits.(15) > 0)

let test_source_of_list_roundtrip () =
  let l = [ (0.5, 1); (0.5, 2); (3.25, 0) ] in
  checkb "roundtrip" true (Source.to_list (Source.of_list l) = l)

let suite =
  [
    Alcotest.test_case "poisson sorted and bounded" `Quick
      test_poisson_sorted_and_bounded;
    Alcotest.test_case "poisson rate" `Quick test_poisson_rate_roughly_right;
    Alcotest.test_case "poisson deterministic" `Quick
      test_poisson_deterministic;
    Alcotest.test_case "hotspot skew" `Quick test_hotspot_skew;
    Alcotest.test_case "serial schedule" `Quick test_serial_each_node_once;
    Alcotest.test_case "merge sorts" `Quick test_merge_sorts;
    Alcotest.test_case "fault spacing" `Quick test_faults_random_spacing;
    Alcotest.test_case "fault avoid list" `Quick test_faults_avoid;
    Alcotest.test_case "fault zero count" `Quick test_faults_zero_count;
    Alcotest.test_case "fault avoid-all and negative count rejected" `Quick
      test_faults_all_nodes_avoided_rejected;
    Alcotest.test_case "fault single candidate may repeat" `Quick
      test_faults_single_candidate_repeats;
    Alcotest.test_case "faults never repeat back-to-back" `Quick
      test_faults_no_consecutive_repeat;
    Alcotest.test_case "runner backlog" `Quick test_runner_backlog;
    Alcotest.test_case "runner wait statistics" `Quick test_runner_wait_stats;
    Alcotest.test_case "runner exponential CS durations" `Quick
      test_runner_exponential_cs;
    Alcotest.test_case "wish on failed node dropped" `Quick
      test_runner_wish_on_failed_node_dropped;
    Alcotest.test_case "runner watchdog names the waiting wishes" `Quick
      test_runner_watchdog_names_waiting;
    Alcotest.test_case "attach twice rejected" `Quick
      test_runner_attach_twice_rejected;
    Alcotest.test_case "whole-system determinism" `Quick
      test_full_run_determinism;
    Alcotest.test_case "open-loop source contracts" `Quick
      test_source_contracts;
    Alcotest.test_case "open-loop poisson rate" `Quick test_source_poisson_rate;
    Alcotest.test_case "zipf hotspot skew" `Quick test_source_zipf_skew;
    Alcotest.test_case "source of_list roundtrip" `Quick
      test_source_of_list_roundtrip;
  ]
