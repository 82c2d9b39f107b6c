(* ocmutex - command-line driver for the open-cube mutual-exclusion
   reproduction.

     ocmutex experiments            run every paper-reproduction experiment
     ocmutex experiments average    run one experiment by name
     ocmutex list                   list the experiments
     ocmutex simulate ...           drive one algorithm on one workload
     ocmutex tree -p 4 ...          show the open-cube evolving
     ocmutex walkthrough            replay the paper's Section 3.2 example *)

open Cmdliner
open Ocube_mutex
module Opencube = Ocube_topology.Opencube
module Registry = Ocube_harness.Registry
module Exp_common = Ocube_harness.Exp_common
module Export = Ocube_obs.Export
module Span = Ocube_obs.Span
module Exp_sweep = Ocube_harness.Exp_sweep

(* --- shared arguments ---------------------------------------------------- *)

let seed_arg =
  let doc = "Random seed (all runs are deterministic in it)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel sections (1 = serial). Output is \
     bit-identical at every width."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"J" ~doc)

let nodes_arg =
  let doc =
    Printf.sprintf
      "Number of nodes: 1 to %d, and a power of two for opencube, \
       opencube-paper, opencube-nofault, raymond and the generic schemes."
      Exp_common.max_nodes
  in
  Arg.(value & opt int 32 & info [ "n"; "nodes" ] ~docv:"N" ~doc)

let algo_arg =
  let doc =
    "Algorithm: opencube, opencube-paper (census off), raymond, \
     raymond-path, naimi-trehel, central, suzuki-kasami, ricart-agrawala, \
     generic-raymond, generic-transit."
  in
  Arg.(value & opt string "opencube" & info [ "a"; "algo" ] ~docv:"ALGO" ~doc)

let metrics_arg =
  let doc =
    "Write the run's metrics snapshot to $(docv) (Prometheus text, or \
     JSON when the file ends in .json)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Write the request spans as Chrome trace_event JSON to $(docv) (load \
     in chrome://tracing or Perfetto)."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let kind_of_string = Exp_common.kind_of_string

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* The exports of [simulate] and [cluster]: the metrics snapshot as
   Prometheus text (JSON when the file ends in .json), the spans and
   instants as a Chrome trace. [label] prints what went where. *)
let write_exports ~label ~metrics_out ~trace_out snapshot spans instants =
  (match (metrics_out, snapshot) with
  | Some path, Some snap ->
    write_file path
      (if Filename.check_suffix path ".json" then Export.json snap
       else Export.prometheus snap);
    Printf.printf label "metrics" path
  | _ -> ());
  Option.iter
    (fun path ->
      write_file path (Export.chrome_trace ~instants ~spans ());
      Printf.printf label "trace" path)
    trace_out

(* --- experiments --------------------------------------------------------- *)

let stalled_exit =
  Cmd.Exit.info 3
    ~doc:
      "when a run stopped making progress (no CS entry and no input for \
       longer than its derived bound); a one-line verdict on stderr names \
       the waiting wishes."

let run_experiments jobs name_opt =
  Ocube_par.Pool.set_default_jobs jobs;
  try
    match name_opt with
    | None ->
      print_string (Registry.run_all ());
      0
    | Some name -> (
      match Registry.find name with
      | Some e ->
        print_string (e.Registry.run ());
        0
      | None ->
        Printf.eprintf "unknown experiment %S; try `ocmutex list'\n" name;
        1)
  with Runner.Stalled verdict ->
    prerr_endline ("ocmutex experiments: " ^ verdict);
    3

let experiments_cmd =
  let name_arg =
    let doc = "Experiment name (omit to run all)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  let doc = "Run the paper-reproduction experiments." in
  let exits =
    Cmd.Exit.info 1 ~doc:"on an unknown experiment name."
    :: stalled_exit :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "experiments" ~doc ~exits)
    Term.(const run_experiments $ jobs_arg $ name_arg)

let list_cmd =
  let doc = "List the available experiments." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-18s %s [%s]\n" e.Registry.name e.Registry.summary
          e.Registry.paper_ref)
      Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- simulate -------------------------------------------------------------- *)

let run_simulate algo n seed rate horizon cs failures recover patience verbose
    metrics_out trace_out =
  (* The observability layer is a passive tap: turning it on for the
     export flags leaves the simulation event-for-event identical. *)
  match
    Exp_common.simulate ~trace:(trace_out <> None)
      ~metrics:(metrics_out <> None || trace_out <> None)
      { algo; n; seed; rate; horizon; cs; failures; recover; patience }
  with
  | Error (Exp_common.Invalid_run msg) ->
    prerr_endline msg;
    1
  | Error (Exp_common.Stalled msg) ->
    prerr_endline ("ocmutex simulate: " ^ msg);
    3
  | Ok (env, inst) ->
    Printf.printf "algorithm        %s\n" inst.Types.algo_name;
    Printf.printf "nodes            %d\n" n;
    Printf.printf "requests issued  %d\n" (Runner.issued env);
    Printf.printf "CS entries       %d\n" (Runner.cs_entries env);
    Printf.printf "abandoned        %d\n" (Runner.abandoned env);
    Printf.printf "outstanding      %d\n" (Runner.outstanding env);
    Printf.printf "messages         %d\n" (Runner.messages_sent env);
    Printf.printf "fault overhead   %d\n" (Runner.fault_overhead_messages env);
    Printf.printf "violations       %d\n" (Runner.violations env);
    let w = Runner.wait_stats env in
    if Ocube_stats.Summary.count w > 0 then
      Printf.printf "wait (mean/max)  %.2f / %.2f\n"
        (Ocube_stats.Summary.mean w)
        (Ocube_stats.Summary.max_value w);
    if verbose then begin
      print_endline "messages by category:";
      List.iter
        (fun (c, k) -> Printf.printf "  %-15s %d\n" c k)
        (Runner.messages_by_category env)
    end;
    write_exports ~label:"%-17s-> %s\n" ~metrics_out ~trace_out
      (Runner.metrics_snapshot env)
      (Option.fold ~none:[] ~some:Span.closed (Runner.spans env))
      (Runner.instants env);
    if Runner.violations env = 0 then 0 else 2

let simulate_cmd =
  let rate_arg =
    let doc = "Poisson request rate per node per time unit." in
    Arg.(value & opt float 0.01 & info [ "rate" ] ~docv:"R" ~doc)
  in
  let horizon_arg =
    let doc = "Arrival horizon (virtual time units)." in
    Arg.(value & opt float 1000.0 & info [ "horizon" ] ~docv:"T" ~doc)
  in
  let cs_arg =
    let doc = "Critical-section duration." in
    Arg.(value & opt float 1.0 & info [ "cs" ] ~docv:"D" ~doc)
  in
  let failures_arg =
    let doc = "Number of fail-stop failures to inject." in
    Arg.(value & opt int 0 & info [ "failures" ] ~docv:"K" ~doc)
  in
  let recover_arg =
    let doc = "Recovery delay after each failure (0 = no recovery)." in
    Arg.(value & opt float 100.0 & info [ "recover" ] ~docv:"T" ~doc)
  in
  let patience_arg =
    let doc =
      "Asker-patience multiplier for the open-cube algorithm (the paper's        suspicion timeout is 2*pmax*delta; see the E13b ablation)."
    in
    Arg.(value & opt float 1.0 & info [ "patience" ] ~docv:"X" ~doc)
  in
  let verbose_arg =
    let doc = "Print the per-category message breakdown." in
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
  in
  let doc = "Simulate one algorithm under a Poisson workload." in
  let exits =
    Cmd.Exit.info 1
      ~doc:"on an unknown algorithm name or an out-of-range $(b,-n)."
    :: Cmd.Exit.info 2 ~doc:"when the run violated mutual exclusion."
    :: stalled_exit :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "simulate" ~doc ~exits)
    Term.(
      const run_simulate $ algo_arg $ nodes_arg $ seed_arg
      $ rate_arg $ horizon_arg $ cs_arg $ failures_arg $ recover_arg
      $ patience_arg $ verbose_arg $ metrics_arg $ trace_out_arg)

(* --- tree ------------------------------------------------------------------- *)

(* [tree] and [dot] draw every node, in time linear in N once the drawn
   cube passes its check (2 s and 80 MB of text at 2^20); the bound is the
   largest instance [simulate] takes. *)
let max_drawn_p = 20

let drawn_p_arg =
  let doc =
    Printf.sprintf "Cube dimension: 2^P nodes, 0 <= P <= %d." max_drawn_p
  in
  Arg.(value & opt int 4 & info [ "p" ] ~docv:"P" ~doc)

let p_out_of_range ~max p =
  if p < 0 || p > max then begin
    Printf.eprintf "-p must be between 0 and %d (got %d)\n" max p;
    true
  end
  else false

let p_range_exit ~max =
  Cmd.Exit.info 1 ~doc:(Printf.sprintf "when $(b,-p) is outside 0..%d." max)
  :: Cmd.Exit.defaults

(* The drawn cube: adopted from the core's father array and checked, so
   that a valid cube draws with the closed-form [sons] rather than an O(N)
   scan per node. *)
let drawn_cube algo =
  let cube = Opencube.of_fathers (Opencube_algo.snapshot_tree algo) in
  ignore (Opencube.check cube : (unit, string) result);
  cube

let run_tree p requests seed =
  if p_out_of_range ~max:max_drawn_p p then 1
  else begin
    let env, algo =
      Exp_common.make_opencube ~seed ~fault_tolerance:false ~p ()
    in
    let show () = print_string (Opencube.render (drawn_cube algo)) in
    Printf.printf "Initial %d-open-cube:\n" (1 lsl p);
    show ();
    List.iter
      (fun node ->
        if node < 0 || node >= 1 lsl p then
          Printf.printf "\n(node %d out of range, skipped)\n" node
        else begin
          Printf.printf "\nAfter serving node %d (%d messages):\n" (node + 1)
            (Exp_common.probe env node);
          show ()
        end)
      requests;
    (match Opencube_algo.check_opencube algo with
    | Ok () -> print_endline "\nstructure check: OK"
    | Error m -> print_endline ("\nstructure check FAILED: " ^ m));
    0
  end

let tree_cmd =
  let req_arg =
    let doc = "Nodes that request, in order (1-based, as in the paper)." in
    Arg.(value & pos_all int [] & info [] ~docv:"NODE" ~doc)
  in
  let doc = "Show the open-cube evolving under serial requests." in
  Cmd.v
    (Cmd.info "tree" ~doc ~exits:(p_range_exit ~max:max_drawn_p))
    Term.(
      const (fun p reqs seed ->
          run_tree p (List.map (fun r -> r - 1) reqs) seed)
      $ drawn_p_arg $ req_arg $ seed_arg)

(* --- dot -------------------------------------------------------------------- *)

let run_dot p requests seed output =
  if p_out_of_range ~max:max_drawn_p p then 1
  else begin
    let env, algo =
      Exp_common.make_opencube ~seed ~fault_tolerance:false ~p ()
    in
    List.iter
      (fun node ->
        if node >= 0 && node < 1 lsl p then ignore (Exp_common.probe env node))
      requests;
    let dot = Opencube.to_dot (drawn_cube algo) in
    (match output with
    | None -> print_string dot
    | Some path ->
      let oc = open_out path in
      output_string oc dot;
      close_out oc;
      Printf.printf "wrote %s\n" path);
    0
  end

let dot_cmd =
  let req_arg =
    let doc = "Nodes that request before the export (1-based)." in
    Arg.(value & pos_all int [] & info [] ~docv:"NODE" ~doc)
  in
  let out_arg =
    let doc = "Output file (stdout if omitted)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let doc = "Export the (possibly evolved) open-cube as Graphviz DOT." in
  Cmd.v
    (Cmd.info "dot" ~doc ~exits:(p_range_exit ~max:max_drawn_p))
    Term.(
      const (fun p reqs seed out ->
          run_dot p (List.map (fun r -> r - 1) reqs) seed out)
      $ drawn_p_arg $ req_arg $ seed_arg $ out_arg)

(* --- walkthrough ------------------------------------------------------------ *)

let walkthrough_cmd =
  let doc = "Replay the paper's Section 3.2 worked example with a trace." in
  let run () =
    print_string
      ((Option.get (Registry.find "figures")).Registry.run ());
    0
  in
  Cmd.v (Cmd.info "walkthrough" ~doc) Term.(const run $ const ())

(* --- verify ------------------------------------------------------------------ *)

(* The model's packed state holds at most 1024 node ids. *)
let max_verify_p = 10

let run_verify p wishes max_states jobs symmetry mem_budget faults =
  let module E = Ocube_model.Explore in
  if p_out_of_range ~max:max_verify_p p then 1
  else begin
    Printf.printf
      "Exhaustively exploring the protocol: N = %d, %d wish(es) per node%s%s...\n\
       %!"
      (1 lsl p) wishes
      (if faults > 0 then Printf.sprintf ", up to %d crash fault(s)" faults
       else "")
      (if symmetry then ", symmetry-reduced" else "");
    try
      let mem_budget =
        if mem_budget <= 0 then None else Some (mem_budget * 1024 * 1024)
      in
      let s =
        E.run ~max_states ~jobs ~max_faults:faults ~symmetry ?mem_budget ~p
          ~wishes ()
      in
      if symmetry then begin
        Printf.printf
          "  %d canonical (quotient) states, %d transitions, %d terminal states\n"
          s.E.states s.E.transitions s.E.terminals;
        Printf.printf
          "  orbit upper bound on raw states: %d (<= %.2fx reduction)\n"
          s.E.orbit_states
          (float_of_int s.E.orbit_states /. float_of_int s.E.states)
      end
      else
        Printf.printf
          "  %d reachable states, %d transitions, %d terminal states\n" s.E.states
          s.E.transitions s.E.terminals;
      Printf.printf "  peak in-flight %d, depth %d\n" s.E.max_in_flight
        s.E.max_depth;
      if s.E.spilled_segments > 0 then
        Printf.printf "  spilled %d frontier segment(s), %d bytes\n"
          s.E.spilled_segments s.E.spilled_bytes;
      print_endline "  all invariants hold in every reachable state.";
      0
    with
    | E.Violation v ->
      Printf.printf "VIOLATION: %s\n%s" v.E.message
        (Format.asprintf "%a" Ocube_model.Machine.pp v.E.state);
      Printf.printf "trace (%d steps): %s\n" (List.length v.E.trace)
        (Format.asprintf "%a" E.pp_trace v.E.trace);
      2
    | Failure msg ->
      prerr_endline msg;
      1
  end

let verify_cmd =
  let p_arg =
    let doc =
      Printf.sprintf "Cube dimension: 2^P nodes, 0 <= P <= %d." max_verify_p
    in
    Arg.(value & opt int 2 & info [ "p" ] ~docv:"P" ~doc)
  in
  let wishes_arg =
    let doc = "Critical-section entries per node." in
    Arg.(value & opt int 2 & info [ "w"; "wishes" ] ~docv:"W" ~doc)
  in
  let max_states_arg =
    let doc = "Abort beyond this many states." in
    Arg.(value & opt int 5_000_000 & info [ "max-states" ] ~docv:"K" ~doc)
  in
  let symmetry_arg =
    let doc =
      "Explore the quotient under the open cube's automorphism group: \
       canonicalize every state key, store one representative per orbit."
    in
    Arg.(value & flag & info [ "symmetry" ] ~doc)
  in
  let mem_budget_arg =
    let doc =
      "Frontier memory budget in MiB; past it, BFS levels spill to \
       front-coded temp-file segments. 0 = unlimited."
    in
    Arg.(value & opt int 0 & info [ "mem-budget" ] ~docv:"MB" ~doc)
  in
  let faults_arg =
    let doc = "Enable up to $(docv) fail-stop crash faults." in
    Arg.(value & opt int 0 & info [ "faults" ] ~docv:"F" ~doc)
  in
  let doc = "Model-check the protocol exhaustively (all interleavings)." in
  let exits =
    Cmd.Exit.info 1
      ~doc:
        (Printf.sprintf
           "when $(b,-p) is outside 0..%d, or past $(b,--max-states) states."
           max_verify_p)
    :: Cmd.Exit.info 2 ~doc:"when an invariant is violated (the trace follows)."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "verify" ~doc ~exits)
    Term.(
      const run_verify $ p_arg $ wishes_arg $ max_states_arg $ jobs_arg
      $ symmetry_arg $ mem_budget_arg $ faults_arg)

(* --- fuzz -------------------------------------------------------------------- *)

module Scenario = Ocube_check.Scenario
module Fuzz = Ocube_check.Fuzz

let print_failure ~seed (f : Fuzz.failure) =
  Printf.printf "\nFAILED at iteration %d of seed %d\n" f.Fuzz.index seed;
  Printf.printf "  invariant : %s\n" f.Fuzz.error;
  Printf.printf "  scenario  : %s\n" (Scenario.to_string f.Fuzz.scenario);
  Printf.printf "  minimal reproducer (%d arrivals, %d faults):\n"
    (List.length f.Fuzz.shrunk.Scenario.arrivals)
    (List.length f.Fuzz.shrunk.Scenario.faults);
  Printf.printf "    %s\n" (Scenario.to_string f.Fuzz.shrunk);
  Printf.printf "  invariant on reproducer: %s\n" f.Fuzz.shrunk_error;
  Printf.printf "\nreplay with:\n  ocmutex fuzz --replay '%s'\n"
    (Scenario.to_string f.Fuzz.shrunk)

let run_replay script =
  match Scenario.of_string script with
  | Error m ->
    Printf.eprintf "bad scenario script: %s\n" m;
    1
  (* process replays fork real processes under wall-clock timing: the
     oracle verdict is reproducible, the digest is not bit-stable *)
  | Ok ({ Scenario.runtime = Scenario.Proc; _ } as s) -> (
    match Fuzz.run s with
    | Ok d ->
      Format.printf "scenario : %a@." Scenario.pp s;
      Format.printf "digest   : %a@." Fuzz.pp_digest d;
      print_endline "verdict  : all invariants hold (process runtime)";
      0
    | Error m ->
      Format.printf "scenario : %a@." Scenario.pp s;
      Printf.printf "verdict  : INVARIANT VIOLATED - %s\n" m;
      2)
  | Ok s -> (
    match (Fuzz.run s, Fuzz.run s) with
    | Ok d1, Ok d2 ->
      Format.printf "scenario : %a@." Scenario.pp s;
      Format.printf "digest   : %a@." Fuzz.pp_digest d1;
      if Fuzz.equal_digest d1 d2 then begin
        print_endline "replay   : bit-identical (two runs, equal digests)";
        print_endline "verdict  : all invariants hold";
        0
      end
      else begin
        print_endline "replay   : NOT deterministic - digests differ!";
        2
      end
    | Error m, _ | _, Error m ->
      Format.printf "scenario : %a@." Scenario.pp s;
      Printf.printf "verdict  : INVARIANT VIOLATED - %s\n" m;
      2)

let run_fuzz seed jobs iters time algos max_p no_faults runtime replay
    progress_every =
  match replay with
  | Some script -> run_replay script
  | None -> (
    (* forking clusters from pool domains is a hazard; proc campaigns
       run serially (each scenario is itself 2^p processes) *)
    let jobs = if runtime = Scenario.Proc then 1 else jobs in
    let algos =
      match algos with
      | [] -> Scenario.Spec.all
      | names -> (
        match
          List.map
            (fun v -> (v, Scenario.Spec.of_name v))
            (List.concat_map (String.split_on_char ',') names)
        with
        | resolved when List.for_all (fun (_, a) -> a <> None) resolved ->
          List.filter_map snd resolved
        | resolved ->
          let bad, _ = List.find (fun (_, a) -> a = None) resolved in
          Printf.eprintf "unknown algorithm %S\n" bad;
          exit 1)
    in
    let opts =
      { Scenario.algos; max_p; with_faults = not no_faults; runtime }
    in
    let t0 = Unix.gettimeofday () in
    let stop =
      match time with
      | None -> fun () -> false
      | Some budget -> fun () -> Unix.gettimeofday () -. t0 >= budget
    in
    let iters =
      match (iters, time) with
      | Some k, _ -> k
      | None, Some _ -> max_int
      | None, None -> 1000
    in
    let printed = ref 0 in
    let on_progress i =
      (* Parallel campaigns report whole chunks, so test the interval
         crossing rather than divisibility. *)
      if progress_every > 0 && i / progress_every > !printed then begin
        printed := i / progress_every;
        Printf.printf "  ... %d scenarios, %.1fs, all invariants hold\n%!" i
          (Unix.gettimeofday () -. t0)
      end
    in
    let report =
      Fuzz.campaign ~opts ~iters ~stop ~on_progress ~jobs ~fuzz_seed:seed ()
    in
    match report.Fuzz.failure with
    | None ->
      Printf.printf
        "fuzz: %d scenarios across %d algorithm(s), seed %d, %.1fs - zero \
         invariant violations (digest checksum %014x)\n"
        report.Fuzz.ran (List.length algos) seed
        (Unix.gettimeofday () -. t0)
        (report.Fuzz.checksum land 0xff_ffff_ffff_ffff);
      0
    | Some f ->
      print_failure ~seed f;
      2)

let fuzz_cmd =
  let iters_arg =
    let doc = "Stop after $(docv) scenarios (default 1000; unbounded with --time)." in
    Arg.(value & opt (some int) None & info [ "iters" ] ~docv:"K" ~doc)
  in
  let time_arg =
    let doc = "Soak mode: keep fuzzing for $(docv) wall-clock seconds." in
    Arg.(value & opt (some float) None & info [ "time" ] ~docv:"S" ~doc)
  in
  let algos_arg =
    let doc =
      "Restrict to these algorithms (repeatable, comma-separable): opencube, \
       raymond, naimi-trehel, central, suzuki-kasami, ricart-agrawala."
    in
    Arg.(value & opt_all string [] & info [ "algo" ] ~docv:"ALGO" ~doc)
  in
  let max_p_arg =
    let doc = "Largest cube dimension to generate (N up to 2^$(docv))." in
    Arg.(value & opt int 5 & info [ "max-p" ] ~docv:"P" ~doc)
  in
  let no_faults_arg =
    let doc = "Generate only failure-free scenarios." in
    Arg.(value & flag & info [ "no-faults" ] ~doc)
  in
  let replay_arg =
    let doc =
      "Replay one scenario script (as printed for a counterexample) twice \
       and check the runs are bit-identical (process scenarios replay once \
       under the oracle; their wall-clock digests are not bit-stable)."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"SCRIPT" ~doc)
  in
  let runtime_arg =
    let doc =
      "Execution runtime for generated scenarios: $(b,des) runs the \
       deterministic simulator, $(b,proc) forks one real Unix process per \
       node and injects faults with SIGKILL."
    in
    Arg.(
      value
      & opt (enum [ ("des", Scenario.Des); ("proc", Scenario.Proc) ]) Scenario.Des
      & info [ "runtime" ] ~docv:"RT" ~doc)
  in
  let progress_arg =
    let doc = "Print a progress line every $(docv) scenarios (0 = quiet)." in
    Arg.(value & opt int 1000 & info [ "progress" ] ~docv:"K" ~doc)
  in
  let doc =
    "Fuzz all algorithms with adversarial generated scenarios under the \
     runtime invariant oracle."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run_fuzz $ seed_arg $ jobs_arg $ iters_arg
      $ time_arg $ algos_arg $ max_p_arg $ no_faults_arg $ runtime_arg
      $ replay_arg $ progress_arg)

(* --- cluster ----------------------------------------------------------------- *)

module Cluster = Ocube_proc.Cluster
module Histogram = Ocube_stats.Histogram
module Pspec = Ocube_proc.Spec
module Rng = Ocube_sim.Rng

type kill_mode = K_none | K_leader | K_random | K_cascade

let run_cluster seed algo n kill cs tick per_node deadline no_ft log_file
    metrics_out trace_out =
  match Pspec.of_name algo with
  | None ->
    Printf.eprintf "unknown algorithm %S (expected one of: %s)\n" algo
      (String.concat ", " (List.map Pspec.name Pspec.all));
    1
  | Some algo -> (
    match Cluster.dimension n with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok p ->
      let ft = Pspec.fault_tolerant algo && not no_ft in
      let rng = Rng.create seed in
      let kills =
        match kill with
        | K_none -> []
        | K_leader -> [ Cluster.Kill_leader 1 ]
        | K_random ->
          [
            Cluster.Kill_at
              { after = 0.1 +. Rng.float rng 0.6; node = Rng.int rng n };
          ]
        | K_cascade ->
          let a = Rng.int rng n in
          let b = (a + 1 + Rng.int rng (n - 1)) mod n in
          [
            Cluster.Kill_at { after = 0.3; node = a };
            Cluster.Kill_at { after = 0.8; node = b };
          ]
      in
      if kills <> [] && not ft then begin
        Printf.eprintf
          "kill schedules need a fault-tolerant algorithm (opencube, \
           without --no-ft)\n";
        1
      end
      else begin
        let cfg =
          {
            Cluster.algo;
            params = { (Pspec.default_params ~p) with Pspec.ft };
            tick;
            delta = 1.0;
            cs;
            workload = Cluster.Closed_loop { per_node };
            kills;
            deadline;
            metrics = true;
          }
        in
        let o = Cluster.run cfg in
        Printf.printf "cluster  : algo=%s n=%d tick=%g cs=%g per-node=%d\n"
          (Pspec.name algo) n tick cs per_node;
        Printf.printf
          "outcome  : wishes=%d served=%d abandoned=%d entries=%d kills=[%s] \
           violations=%d\n"
          o.Cluster.wishes o.Cluster.served o.Cluster.abandoned
          o.Cluster.entries
          (String.concat "," (List.map string_of_int o.Cluster.killed))
          (List.length o.Cluster.violations);
        (* Acquire latency, wish to entry (queueing plus transit), in
           wall microseconds: span times are in units of [tick] s. *)
        let waits = Histogram.create () in
        List.iter
          (fun (s : Span.span) ->
            if Option.is_some s.Span.enter_time then
              Histogram.add waits
                (Float.to_int (Float.round (Span.wait s *. tick *. 1e6))))
          o.Cluster.spans;
        if Histogram.count waits = 0 then
          print_endline "latency  : no request entered its CS"
        else
          Printf.printf "latency  : p50=%dus p99=%dus (wish -> entry, %d entries)\n"
            (Histogram.percentile waits 50.0)
            (Histogram.percentile waits 99.0)
            (Histogram.count waits);
        (match log_file with
        | None -> ()
        | Some path ->
          let oc = open_out path in
          Cluster.write_log oc o;
          close_out oc;
          Printf.printf "log      : %d events -> %s\n"
            (List.length o.Cluster.events) path);
        write_exports ~label:"%-9s: -> %s\n" ~metrics_out ~trace_out
          o.Cluster.snapshot o.Cluster.spans [];
        match Cluster.oracle_clean o with
        | Ok () ->
          print_endline
            "verdict  : oracle clean (mutual exclusion held, survivors \
             drained, clean exits)";
          0
        | Error e ->
          Printf.printf "verdict  : ORACLE VIOLATED - %s\n" e;
          2
      end)

let cluster_cmd =
  let algo_arg =
    let doc =
      "Algorithm: opencube, raymond, naimi-trehel, central, suzuki-kasami, \
       ricart-agrawala."
    in
    Arg.(value & opt string "opencube" & info [ "a"; "algo" ] ~docv:"ALGO" ~doc)
  in
  let n_arg =
    let doc =
      Printf.sprintf
        "Cluster size: one forked process per node, a power of two from 2 to \
         %d."
        Cluster.max_nodes
    in
    Arg.(value & opt int 8 & info [ "n"; "nodes" ] ~docv:"N" ~doc)
  in
  let kill_arg =
    let doc =
      "Fault injection: $(b,none); $(b,leader) SIGKILLs the first node to \
       enter its critical section, at entry (the token holder, mid-CS); \
       $(b,random) kills one seeded-random node at a random time; \
       $(b,cascade) kills two distinct nodes 0.5s apart."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("none", K_none); ("leader", K_leader); ("random", K_random);
               ("cascade", K_cascade);
             ])
          K_none
      & info [ "kill" ] ~docv:"MODE" ~doc)
  in
  let cs_arg =
    let doc = "Critical-section duration in simulated time units." in
    Arg.(value & opt float 2.0 & info [ "cs" ] ~docv:"D" ~doc)
  in
  let tick_arg =
    let doc = "Wall seconds per simulated time unit." in
    Arg.(value & opt float 0.02 & info [ "tick" ] ~docv:"S" ~doc)
  in
  let per_node_arg =
    let doc = "Closed-loop wishes per node." in
    Arg.(value & opt int 2 & info [ "per-node" ] ~docv:"K" ~doc)
  in
  let deadline_arg =
    let doc = "Wall-clock budget in seconds; overrun counts as undrained." in
    Arg.(value & opt float 30.0 & info [ "deadline" ] ~docv:"S" ~doc)
  in
  let no_ft_arg =
    let doc = "Disarm the open-cube fault-tolerance machinery." in
    Arg.(value & flag & info [ "no-ft" ] ~doc)
  in
  let log_arg =
    let doc = "Write the merged per-node event log to $(docv)." in
    Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Run the algorithm on a local cluster of real forked processes \
     (length-prefixed wire frames over socketpairs), optionally SIGKILLing \
     nodes mid-run, and check the merged event log against the \
     mutual-exclusion and drain oracle."
  in
  Cmd.v (Cmd.info "cluster" ~doc)
    Term.(
      const run_cluster $ seed_arg $ algo_arg $ n_arg $ kill_arg $ cs_arg
      $ tick_arg $ per_node_arg $ deadline_arg $ no_ft_arg $ log_arg
      $ metrics_arg $ trace_out_arg)

(* --- sweep ------------------------------------------------------------------- *)

let run_sweep seed jobs algos loads sizes horizon out_dir =
  Ocube_par.Pool.set_default_jobs jobs;
  let parse_all parse name xs =
    List.fold_left
      (fun acc x ->
        match (acc, parse x) with
        | Error e, _ -> Error e
        | Ok l, Some v -> Ok (v :: l)
        | Ok _, None -> Error (Printf.sprintf "unknown %s %S" name x))
      (Ok []) xs
    |> Result.map List.rev
  in
  let kinds =
    match algos with
    | [] -> Ok Exp_sweep.default_kinds
    | xs ->
      parse_all
        (fun s -> Result.to_option (kind_of_string s))
        "algorithm" xs
  in
  let loads =
    match loads with
    | [] -> Ok Exp_sweep.all_loads
    | xs -> parse_all Exp_sweep.load_of_string "load" xs
  in
  match (kinds, loads) with
  | Error msg, _ | _, Error msg ->
    prerr_endline msg;
    1
  | Ok kinds, Ok loads ->
    let sizes = match sizes with [] -> [ 16; 64 ] | s -> s in
    let cells = Exp_sweep.grid ~kinds ~loads ~sizes in
    let results = Exp_sweep.run ~seed ~horizon cells in
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    List.iter
      (fun (stem, json) ->
        write_file (Filename.concat out_dir (stem ^ ".json")) json)
      results;
    write_file
      (Filename.concat out_dir "index.json")
      (Exp_sweep.index_json results);
    Printf.printf "sweep: %d cells (%d algos x %d loads x %d sizes) -> %s/\n"
      (List.length results) (List.length kinds) (List.length loads)
      (List.length sizes) out_dir;
    0

let sweep_cmd =
  let algos_arg =
    let doc =
      "Algorithms to sweep (repeatable; default: the six comparison \
       algorithms)."
    in
    Arg.(value & opt_all string [] & info [ "algo" ] ~docv:"ALGO" ~doc)
  in
  let loads_arg =
    let doc =
      "Load regimes (repeatable): light, moderate, heavy, bursty, zipf. \
       Default: all five."
    in
    Arg.(value & opt_all string [] & info [ "load" ] ~docv:"LOAD" ~doc)
  in
  let sizes_arg =
    let doc =
      "System sizes (repeatable; powers of two; default: 16 and 64)."
    in
    Arg.(value & opt_all int [] & info [ "n"; "nodes" ] ~docv:"N" ~doc)
  in
  let horizon_arg =
    let doc = "Arrival horizon in virtual time units." in
    Arg.(value & opt float 200.0 & info [ "horizon" ] ~docv:"T" ~doc)
  in
  let out_arg =
    let doc = "Output directory (one JSON per cell plus index.json)." in
    Arg.(value & opt string "sweep-out" & info [ "o"; "out" ] ~docv:"DIR" ~doc)
  in
  let doc =
    "Heavy-traffic saturation sweep: fan (algorithm x load x size) cells \
     over the worker pool and emit per-cell JSON with p50/p95/p99 waiting \
     time, the queueing-vs-transit split, and messages per request. Output \
     is byte-identical at any --jobs width."
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run_sweep $ seed_arg $ jobs_arg $ algos_arg
      $ loads_arg $ sizes_arg $ horizon_arg $ out_arg)

(* --- main ------------------------------------------------------------------- *)

let () =
  let doc =
    "open-cube fault-tolerant distributed mutual exclusion (Hélary & \
     Mostefaoui, 1993) - reproduction toolkit"
  in
  let info = Cmd.info "ocmutex" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            experiments_cmd; list_cmd; simulate_cmd; tree_cmd; dot_cmd;
            verify_cmd; walkthrough_cmd; fuzz_cmd; cluster_cmd; sweep_cmd;
          ]))
