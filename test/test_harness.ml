(* Tests for the experiment harness: the analytic helpers, the registry
   and (cheap slices of) the experiments themselves. *)

open Ocube_harness

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_alpha_recurrence () =
  checki "alpha 1" 2 (Exp_common.alpha 1);
  checki "alpha 2" 8 (Exp_common.alpha 2);
  checki "alpha 3" 24 (Exp_common.alpha 3);
  (* alpha_{p+1} = 2 alpha_p + 3*2^(p-1) + p *)
  for p = 1 to 10 do
    checki
      (Printf.sprintf "recurrence at %d" p)
      ((2 * Exp_common.alpha p) + (3 * (1 lsl (p - 1))) + p)
      (Exp_common.alpha (p + 1))
  done

let test_average_formula () =
  Alcotest.(check (float 1e-9)) "N=16" 4.25 (Exp_common.average_formula 16);
  Alcotest.(check (float 1e-9)) "N=2" 2.0 (Exp_common.average_formula 2)

let test_log2i () =
  checki "1" 0 (Exp_common.log2i 1);
  checki "1024" 10 (Exp_common.log2i 1024);
  Alcotest.check_raises "not a power of two"
    (Invalid_argument "log2i: not a power of two") (fun () ->
      ignore (Exp_common.log2i 3))

let test_probe_measures_messages () =
  let env, _ = Exp_common.make_opencube ~fault_tolerance:false ~p:3 () in
  checki "root probe free" 0 (Exp_common.probe env 0);
  checki "last son probe costs 2" 2 (Exp_common.probe env 4)

let test_make_builds_all_kinds () =
  List.iter
    (fun kind ->
      let env, inst = Exp_common.make ~kind ~n:16 () in
      Ocube_mutex.Runner.submit env 3;
      Ocube_mutex.Runner.run_to_quiescence env;
      checki
        (Printf.sprintf "%s serves" inst.Ocube_mutex.Types.algo_name)
        1
        (Ocube_mutex.Runner.cs_entries env))
    Exp_common.
      [
        Opencube { census_rounds = 2; fault_tolerance = true };
        Raymond Ocube_topology.Static_tree.Binomial;
        Naimi_trehel;
        Central;
        Generic Ocube_mutex.Generic_scheme.Opencube_rule;
      ]

let test_registry_complete () =
  let names = Registry.names () in
  List.iter
    (fun expected ->
      checkb (expected ^ " registered") true (List.mem expected names))
    [
      "figures"; "worst-case"; "average"; "failure-overhead"; "comparison";
      "search-father"; "rules"; "adaptivity"; "recovery-latency";
      "delay-models"; "throughput"; "fairness"; "ablation"; "model-check";
    ];
  checkb "find works" true (Registry.find "average" <> None);
  checkb "unknown rejected" true (Registry.find "nope" = None)

let test_figures_experiment_output () =
  let out = (Option.get (Registry.find "figures")).Registry.run () in
  checkb "figure 2 header" true (Tutil.contains out "16-open-cube");
  checkb "figure 3 subset" true
    (Tutil.contains out "every open-cube edge is a hypercube edge: true");
  checkb "figure 8 check" true (Tutil.contains out "open-cube OK")

let test_average_experiment_matches_alpha () =
  (* Run the real experiment and verify its table reports exact matches
     (ratio column aside, the sums must equal alpha_p). *)
  let out = (Option.get (Registry.find "average")).Registry.run () in
  (* For p=3: sum 24; for p=5: 154. *)
  checkb "alpha_3 reproduced" true (Tutil.contains out "24");
  checkb "alpha_5 reproduced" true (Tutil.contains out "154");
  checkb "fit line present" true (Tutil.contains out "Least-squares fit")

let test_cheap_experiments_run () =
  (* Smoke every fast experiment end to end; the expensive ones
     (worst-case, failure-overhead, comparison, model-check) are exercised
     by the bench harness. *)
  List.iter
    (fun (name, marker) ->
      let out = (Option.get (Registry.find name)).Registry.run () in
      checkb
        (Printf.sprintf "%s output mentions %S" name marker)
        true (Tutil.contains out marker))
    [
      ("rules", "generic/open-cube");
      ("search-father", "mean probes");
      ("adaptivity", "mean hot depth");
      ("recovery-latency", "latency with failure");
      ("delay-models", "alpha_p");
      ("throughput", "msgs/CS");
      ("fairness", "queue policy");
    ]

let test_algo_label_unique () =
  let labels =
    List.map Exp_common.algo_label
      Exp_common.
        [
          Opencube { census_rounds = 2; fault_tolerance = true };
          Opencube { census_rounds = 0; fault_tolerance = true };
          Opencube { census_rounds = 2; fault_tolerance = false };
          Raymond Ocube_topology.Static_tree.Binomial;
          Raymond Ocube_topology.Static_tree.Path;
          Naimi_trehel;
          Central;
        ]
  in
  checki "labels distinct" (List.length labels)
    (List.length (List.sort_uniq compare labels))

(* --- sweep ----------------------------------------------------------------- *)

let small_sweep_cells =
  Exp_sweep.grid
    ~kinds:
      Exp_common.
        [ Opencube { census_rounds = 0; fault_tolerance = false }; Central ]
    ~loads:[ Exp_sweep.Heavy; Exp_sweep.Zipf ]
    ~sizes:[ 8 ]

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.equal (String.sub haystack i nn) needle || go (i + 1)
  in
  go 0

let test_sweep_runs_and_reports () =
  let results = Exp_sweep.run ~seed:5 ~horizon:40.0 small_sweep_cells in
  checki "one result per cell" (List.length small_sweep_cells)
    (List.length results);
  List.iter
    (fun (label, json) ->
      checkb (label ^ " has percentiles") true (contains json "\"wait_p99\"");
      checkb (label ^ " is violation-free") true
        (contains json "\"violations\": 0"))
    results

(* The sweep's --jobs contract: byte-identical JSON at any pool width. *)
let test_sweep_jobs_parity () =
  let saved = Ocube_par.Pool.default_jobs () in
  let run jobs =
    Ocube_par.Pool.set_default_jobs jobs;
    Exp_sweep.run ~seed:11 ~horizon:30.0 small_sweep_cells
  in
  Fun.protect
    ~finally:(fun () -> Ocube_par.Pool.set_default_jobs saved)
    (fun () ->
      let serial = run 1 and parallel = run 4 in
      List.iter2
        (fun (l1, j1) (l2, j2) ->
          Alcotest.(check string) "label" l1 l2;
          Alcotest.(check string) ("cell " ^ l1) j1 j2)
        serial parallel)

let test_sweep_index_json () =
  let idx = Exp_sweep.index_json [ ("a", "{}"); ("b", "{}") ] in
  checkb "lists both cells" true
    (contains idx "\"a.json\"" && contains idx "\"b.json\"")

(* The run behind `ocmutex simulate`: an unknown algorithm is an error,
   and a run serves every wish. A run that stops making progress comes
   back as [Stalled] with the runner's verdict; no shipped algorithm
   stalls, so the verdict itself is tested on a forged livelock in
   test_workload. *)
let test_simulate_runs () =
  let run =
    {
      Exp_common.algo = "opencube";
      n = 64;
      seed = 5;
      rate = 0.005;
      horizon = 200.0;
      cs = 1.0;
      failures = 1;
      recover = 50.0;
      patience = 1.0;
    }
  in
  (match Exp_common.simulate { run with algo = "no-such-algo" } with
  | Error (Exp_common.Invalid_run _) -> ()
  | _ -> Alcotest.fail "unknown algorithm accepted");
  match Exp_common.simulate run with
  | Ok (env, _) ->
    checki "every wish served" (Ocube_mutex.Runner.issued env)
      (Ocube_mutex.Runner.cs_entries env)
  | Error (Exp_common.Stalled m | Exp_common.Invalid_run m) ->
    Alcotest.fail m

(* A node count the algorithm cannot take is an error, not a crash: at
   least one node, and a power of two for the open cube and the binomial
   trees. *)
let test_simulate_node_counts () =
  let run algo n =
    {
      Exp_common.algo;
      n;
      seed = 1;
      rate = 0.01;
      horizon = 20.0;
      cs = 1.0;
      failures = 0;
      recover = 0.0;
      patience = 1.0;
    }
  in
  let rejected algo n expect =
    match Exp_common.simulate (run algo n) with
    | Error (Exp_common.Invalid_run m) ->
      checkb (Printf.sprintf "%s -n %d: %s" algo n m) true (contains m expect)
    | Ok _ | Error (Exp_common.Stalled _) ->
      Alcotest.failf "%s -n %d accepted" algo n
  in
  rejected "opencube" 3 "-n must be a power of two for open-cube/ft (got 3)";
  rejected "opencube" 0 "-n must be at least 1 (got 0)";
  rejected "raymond" 3 "power of two";
  rejected "generic-transit" 6 "power of two";
  rejected "central" 0 "-n must be at least 1";
  List.iter
    (fun (algo, n) ->
      match Exp_common.simulate (run algo n) with
      | Ok _ -> ()
      | Error (Exp_common.Stalled m | Exp_common.Invalid_run m) ->
        Alcotest.failf "%s -n %d: %s" algo n m)
    [ ("opencube", 1); ("central", 3); ("raymond-path", 3) ]

let suite =
  [
    Alcotest.test_case "alpha recurrence" `Quick test_alpha_recurrence;
    Alcotest.test_case "average closed form" `Quick test_average_formula;
    Alcotest.test_case "log2i" `Quick test_log2i;
    Alcotest.test_case "probe measures messages" `Quick
      test_probe_measures_messages;
    Alcotest.test_case "make builds every algorithm kind" `Quick
      test_make_builds_all_kinds;
    Alcotest.test_case "registry is complete" `Quick test_registry_complete;
    Alcotest.test_case "figures experiment output" `Quick
      test_figures_experiment_output;
    Alcotest.test_case "average experiment reproduces alpha" `Slow
      test_average_experiment_matches_alpha;
    Alcotest.test_case "fast experiments all run" `Slow
      test_cheap_experiments_run;
    Alcotest.test_case "algorithm labels are distinct" `Quick
      test_algo_label_unique;
    Alcotest.test_case "sweep cells run and report" `Quick
      test_sweep_runs_and_reports;
    Alcotest.test_case "sweep JSON identical at any --jobs" `Quick
      test_sweep_jobs_parity;
    Alcotest.test_case "sweep index manifest" `Quick test_sweep_index_json;
    Alcotest.test_case "simulate: unknown algorithm, every wish served"
      `Quick test_simulate_runs;
    Alcotest.test_case "simulate: out-of-range node counts rejected" `Quick
      test_simulate_node_counts;
  ]
