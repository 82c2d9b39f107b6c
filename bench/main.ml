(* Benchmark harness.

   Two halves:

   1. Bechamel micro-benchmarks - one kernel per reproduced table or
      figure, timing the computational core that regenerates it (how
      long one probe/trial/check takes on this machine). These measure the
      implementation, not the paper's claims. Sub-microsecond kernels are
      batched (the closure runs the operation [batch] times and the
      estimate is divided back), otherwise clock granularity swamps the
      OLS fit and r^2 goes negative.

   2. The full reproduction report - every experiment from
      {!Ocube_harness.Registry} printed in paper-vs-measured form. This is
      the part whose *content* mirrors the paper's evaluation; see
      EXPERIMENTS.md for the archived output.

   Usage:
     dune exec bench/main.exe                      both parts
     dune exec bench/main.exe -- --no-experiments  kernels only
     dune exec bench/main.exe -- --no-bench        experiments only
     dune exec bench/main.exe -- --json OUT.json   dump kernel estimates
     dune exec bench/main.exe -- --quick           fast CI slice
     dune exec bench/main.exe -- --compare OLD.json [--max-regression X]
                                                   diff against a baseline;
                                                   exit 3 beyond X (def. 2.0)
     dune exec bench/main.exe -- -jobs N           domain pool width for the
                                                   experiment tables *)

open Bechamel
open Toolkit
open Ocube_mutex
module Exp_common = Ocube_harness.Exp_common
module Opencube = Ocube_topology.Opencube
module Engine = Ocube_sim.Engine
module Source = Ocube_workload.Source
module Rng = Ocube_sim.Rng
module Machine = Ocube_model.Machine
module Explore = Ocube_model.Explore

(* --- kernel registry ------------------------------------------------------ *)

(* Two measurement modes. [Ols] is bechamel's regression over many
   iterations — right for fast kernels, where per-iteration noise must be
   averaged out. Kernels above ~1 ms get [Median]: a few timed single
   shots after a warmup, reported as the median. Bechamel's OLS breaks
   down there — few samples fit in the quota, and any one-time lazy
   initialisation paid inside the first iteration turns r^2 negative
   (BENCH_PR6.json carried three such unreliable fits, silently skipped
   by the --compare gate). A median of single shots has no fit to break:
   the warmup absorbs lazy setup and the median rejects GC outliers. *)
type kind =
  | Ols of Test.t
  | Median of (unit -> unit)

(* Every kernel is registered with its batch factor so the runner can
   report per-operation time no matter how the closure is batched. *)
let registry : (string * int * kind) list ref = ref []

let reg ~name ?(batch = 1) f =
  let t =
    if batch = 1 then Test.make ~name (Staged.stage f)
    else
      Test.make ~name
        (Staged.stage @@ fun () ->
         for _ = 1 to batch do
           f ()
         done)
  in
  registry := (name, batch, Ols t) :: !registry

let reg_median ~name ?(batch = 1) f =
  registry := (name, batch, Median f) :: !registry

(* --- kernels, one per table/figure -------------------------------------- *)

(* Fig. 2: building and validating an open-cube. *)
let () =
  reg ~name:"fig2_build_and_check_p10" (fun () ->
      let c = Opencube.build ~p:10 in
      match Opencube.check c with Ok () -> () | Error m -> failwith m)

(* Fig. 3: hypercube-embedding check of the initial tree. *)
let () =
  reg ~name:"fig3_hypercube_embedding_p8" ~batch:4 (fun () ->
      let c = Opencube.build ~p:8 in
      List.iter
        (fun (s, f) -> assert (Ocube_topology.Opencube.Hypercube.is_edge s f))
        (Opencube.edges c))

(* Thm. 2.1: a long chain of b-transformations. *)
let () =
  let cube = Opencube.build ~p:10 in
  let rng = Rng.create 1 in
  reg ~name:"thm21_btransform_p10" ~batch:64 (fun () ->
      let i = Rng.int rng 1024 in
      if Opencube.sons cube i <> [] then Opencube.b_transform cube i)

(* Prop. 2.3: branch statistics over the whole cube. *)
let () =
  let cube = Opencube.build ~p:10 in
  reg ~name:"prop23_branch_stats_p10" (fun () ->
      for i = 0 to 1023 do
        let r, n1 = Opencube.branch_stats cube i in
        assert (r <= 10 - n1)
      done)

(* Walkthrough (Figures 6-8): the full Section 3.2 scenario. *)
let () =
  reg ~name:"fig8_walkthrough_scenario" ~batch:4 (fun () ->
      let env, _ =
        Exp_common.make_opencube ~fault_tolerance:false ~p:4
          ~cs:(Runner.Fixed 10.0) ()
      in
      Runner.run_arrivals env (Runner.Arrivals.single ~node:5 ~at:1.0);
      Runner.run_arrivals env (Runner.Arrivals.single ~node:9 ~at:5.0);
      Runner.run_arrivals env (Runner.Arrivals.single ~node:7 ~at:6.0);
      Runner.run_to_quiescence env)

(* E1/Table worst-case: one serial request on a live 64-node system. *)
let () =
  let env, _ = Exp_common.make_opencube ~fault_tolerance:false ~p:6 () in
  let rng = Rng.create 2 in
  reg ~name:"tbl_worst_case_probe_n64" ~batch:16 (fun () ->
      ignore (Exp_common.probe env (Rng.int rng 64)))

(* E2/Table average: the full alpha_p measurement at p = 4. *)
let () =
  reg ~name:"tbl_average_alpha_p4" ~batch:2 (fun () ->
      let total = ref 0 in
      for i = 0 to 15 do
        let env, _ = Exp_common.make_opencube ~fault_tolerance:false ~p:4 () in
        total := !total + Exp_common.probe env i
      done;
      assert (!total = Exp_common.alpha 4))

(* E3/Table failure overhead: one controlled failure+recovery trial.
   Batched: trial cost varies with the seeded fault location, so single
   trials fit poorly no matter the quota. *)
let () =
  let counter = ref 0 in
  reg ~name:"tbl_failure_trial_n16" ~batch:8 (fun () ->
      incr counter;
      let env, _ = Exp_common.make_opencube ~seed:!counter ~p:4 () in
      let rng = Rng.create !counter in
      ignore (Exp_common.probe env (Rng.int rng 16));
      Runner.schedule_faults env
        [
          Runner.Faults.at
            (Runner.now env +. 1.0)
            (Rng.int rng 16) ~recover_after:50.0 ();
        ];
      for _ = 1 to 3 do
        ignore (Exp_common.probe env (Rng.int rng 16))
      done;
      Runner.run_to_quiescence env)

(* E4/Table comparison: one probe per baseline. *)
let bench_probe kind name =
  let env, _ = Exp_common.make ~kind ~n:64 () in
  let rng = Rng.create 3 in
  reg ~name ~batch:32 (fun () -> ignore (Exp_common.probe env (Rng.int rng 64)))

let () =
  bench_probe
    (Exp_common.Raymond Ocube_topology.Static_tree.Binomial)
    "tbl_comparison_raymond_n64";
  bench_probe Exp_common.Naimi_trehel "tbl_comparison_naimi_trehel_n64";
  bench_probe Exp_common.Central "tbl_comparison_central_n64";
  bench_probe Exp_common.Suzuki_kasami "tbl_comparison_suzuki_kasami_n64";
  bench_probe Exp_common.Ricart_agrawala "tbl_comparison_ricart_agrawala_n64"

(* E5/Table search_father: a failure followed by a reconnecting search. *)
let () =
  let counter = ref 100 in
  reg ~name:"tbl_search_father_n32" ~batch:4 (fun () ->
      incr counter;
      let env, _ = Exp_common.make_opencube ~seed:!counter ~p:5 () in
      Runner.schedule_faults env [ Runner.Faults.at 0.5 24 () ];
      Runner.run_arrivals env (Runner.Arrivals.single ~node:25 ~at:1.0);
      Runner.run_to_quiescence env)

(* E6/Table rules: one probe through the generic engine. *)
let () =
  let env, _ =
    Exp_common.make
      ~kind:(Exp_common.Generic Generic_scheme.Opencube_rule)
      ~n:64 ()
  in
  let rng = Rng.create 4 in
  reg ~name:"tbl_rules_generic_probe_n64" ~batch:32 (fun () ->
      ignore (Exp_common.probe env (Rng.int rng 64)))

(* E7/Table adaptivity: a hotspot burst. *)
let () =
  let counter = ref 200 in
  reg ~name:"tbl_adaptivity_hotspot_n16" ~batch:4 (fun () ->
      incr counter;
      let env, _ =
        Exp_common.make_opencube ~seed:!counter ~fault_tolerance:false ~p:4 ()
      in
      let arrivals =
        Runner.Arrivals.hotspot ~rng:(Rng.create !counter) ~n:16 ~hot:[ 13 ]
          ~hot_rate:0.05 ~cold_rate:0.005 ~horizon:200.0
      in
      Runner.run_arrivals env arrivals;
      Runner.run_to_quiescence env)

(* E8: one timed fault-recovery latency trial. *)
let () =
  let counter = ref 300 in
  reg ~name:"tbl_recovery_latency_trial_n16" ~batch:8 (fun () ->
      incr counter;
      let env, algo = Exp_common.make_opencube ~seed:!counter ~p:4 () in
      let rng = Rng.create !counter in
      ignore (Exp_common.probe env (Rng.int rng 16));
      let node = 1 + Rng.int rng 15 in
      let father =
        match Opencube_algo.father algo node with Some f -> f | None -> 0
      in
      Runner.schedule_faults env
        [ Runner.Faults.at (Runner.now env +. 0.5) father () ];
      Runner.run_arrivals env
        (Runner.Arrivals.single ~node ~at:(Runner.now env +. 1.0));
      Runner.run_to_quiescence env)

(* E9: alpha_p at p=4 under exponential delays. *)
let () =
  reg ~name:"tbl_delay_models_alpha_p4" (fun () ->
      let total = ref 0 in
      for i = 0 to 15 do
        let env, _ =
          Exp_common.make_opencube
            ~delay:(Ocube_net.Network.Exponential { mean = 0.7; cap = 3.0 })
            ~fault_tolerance:false ~p:4 ()
        in
        total := !total + Exp_common.probe env i
      done;
      assert (!total = Exp_common.alpha 4))

(* E10: one closed-loop saturation round. *)
let () =
  reg ~name:"tbl_throughput_round_n16" ~batch:8 (fun () ->
      let env, _ =
        Exp_common.make
          ~kind:
            (Exp_common.Opencube { census_rounds = 2; fault_tolerance = false })
          ~n:16 ~cs:(Runner.Fixed 1.0) ()
      in
      for node = 0 to 15 do
        Runner.submit env node
      done;
      Runner.run_to_quiescence env)

(* E11: a loaded run with wait-sample collection. *)
let () =
  reg ~name:"tbl_fairness_slice_n16" ~batch:4 (fun () ->
      let env, _ =
        Exp_common.make ~kind:Exp_common.Naimi_trehel ~n:16
          ~cs:(Runner.Fixed 0.5) ()
      in
      let arrivals =
        Runner.Arrivals.poisson ~rng:(Rng.create 5) ~n:16 ~rate_per_node:0.01
          ~horizon:500.0
      in
      Runner.run_arrivals env arrivals;
      Runner.run_to_quiescence env;
      ignore (Runner.wait_samples env))

(* E12: an exhaustive model-check of the 4-node cube. *)
let () =
  reg ~name:"tbl_modelcheck_p2_w1" (fun () ->
      let s = Explore.run ~p:2 ~wishes:1 () in
      assert (s.Explore.states = 1064))

(* E13: one churn slice used by the ablation. *)
let () =
  let counter = ref 400 in
  reg ~name:"tbl_ablation_churn_slice_n16" ~batch:8 (fun () ->
      incr counter;
      let env, _ =
        Exp_common.make_opencube ~seed:!counter ~census_rounds:1 ~p:4 ()
      in
      let arrivals =
        Runner.Arrivals.poisson ~rng:(Rng.create !counter) ~n:16
          ~rate_per_node:0.002 ~horizon:400.0
      in
      Runner.run_arrivals env arrivals;
      Runner.schedule_faults env
        [ Runner.Faults.at 100.0 (1 + (!counter mod 15)) ~recover_after:50.0 () ];
      Runner.run_to_quiescence env)

(* --- large-N scaling kernels -------------------------------------------- *)

(* These do not mirror a table or figure; they pin the asymptotic cost of
   the hot path so BENCH_*.json diffs catch complexity regressions. The
   probe ladder p = 10/12/14 quadruples N per rung: per-probe cost must
   grow like the O(log N) message count, not like N. *)

let bench_scale_probe p =
  let env, _ = Exp_common.make_opencube ~fault_tolerance:false ~p () in
  let n = 1 lsl p in
  let rng = Rng.create 6 in
  reg ~name:(Printf.sprintf "scale_probe_p%d" p) ~batch:8 (fun () ->
      ignore (Exp_common.probe env (Rng.int rng n)))

let () =
  bench_scale_probe 10;
  bench_scale_probe 12;
  bench_scale_probe 14

(* The runner's structured record on vs off over the same workload: the
   gap is one plain entry and list cell per event, nothing formatted. *)
let bench_scale_trace trace name =
  let env, _ = Exp_common.make_opencube ~fault_tolerance:false ~trace ~p:6 () in
  let rng = Rng.create 7 in
  reg ~name ~batch:16 (fun () ->
      ignore (Exp_common.probe env (Rng.int rng 64)))

let () =
  bench_scale_trace false "scale_probe_traceoff_n64";
  bench_scale_trace true "scale_probe_traceon_n64"

(* Chains of b-transformations exercise [last_son] + son reconstruction;
   the ladder quadruples N per rung from p = 14 up to p = 20 (N ≈ 1M).
   With the implicit representation both operations are O(p), so per-op
   time must stay near-flat up the ladder. Cubes are built lazily inside
   the kernel: a --quick run that never selects the big rungs must not
   pay their megabyte allocations at startup. *)
let bench_scale_btransform ?(median = false) p =
  let cube = lazy (Opencube.build ~p) in
  let n = 1 lsl p in
  let rng = Rng.create 8 in
  let f () =
    let cube = Lazy.force cube in
    for _ = 1 to 64 do
      let i = Rng.int rng n in
      if Opencube.last_son cube i <> None then Opencube.b_transform cube i
    done
  in
  let name = Printf.sprintf "scale_btransform_chain_p%d" p in
  (* The big rungs build megabyte cubes lazily inside the first
     iteration, which wrecks the OLS fit (negative r^2 in BENCH_PR6);
     the median runner's warmup pays that cost outside the clock. *)
  if median then reg_median ~name ~batch:4 f else reg ~name ~batch:4 f

let () =
  bench_scale_btransform 10;
  bench_scale_btransform 14;
  bench_scale_btransform 16;
  bench_scale_btransform ~median:true 18;
  bench_scale_btransform ~median:true 20

(* End-to-end N ≈ 1M smoke: a full wish -> token -> CS round trip on a
   2^20-node simulated system. The environment (flat Bigarray node state,
   one shared message handler) is built lazily once; each iteration
   drives one probe from a random node, whose cost must stay O(p)
   messages — independent of N. *)
let () =
  let env_1m =
    lazy (Exp_common.make_opencube ~fault_tolerance:false ~p:20 ())
  in
  let rng = Rng.create 9 in
  (* Median mode: the ~200 ms lazy environment build lands in the warmup,
     so the shots measure the probe itself (a few O(p)-message round
     trips), not the setup — BENCH_PR6's 66 ms/iter figure was setup
     amortised over a broken fit. Batched so one shot is well above
     clock granularity. *)
  reg_median ~name:"simulate_n_1M" ~batch:16 (fun () ->
      let env, _ = Lazy.force env_1m in
      ignore (Exp_common.probe env (Rng.int rng (1 lsl 20))))

(* --- event-core and open-loop traffic kernels ----------------------------- *)

(* Raw event-queue churn, no protocol: 100k packed events with mixed
   delays, drained to empty. *)
let () =
  reg_median ~name:"engine_churn_heap_100k" (fun () ->
      let e = Engine.create () in
      let counter = ref 0 in
      let cls = Engine.register_class e (fun _ a _ -> counter := !counter + a) in
      let rng = Rng.create 11 in
      for _ = 1 to 100_000 do
        ignore
          (Engine.schedule_packed e ~delay:(Rng.float rng 50.0) ~cls ~a:1 ~b:0 ignore)
      done;
      Engine.run e;
      assert (!counter = 100_000))

(* One heavy-traffic open-loop cell (the sweep's unit of work): 64 nodes,
   aggregate Poisson at 1.2x capacity over 200 time units, drained. *)
let () =
  let counter = ref 500 in
  reg_median ~name:"sweep_open_loop_heavy_n64" (fun () ->
      incr counter;
      let env, _ =
        Exp_common.make
          ~kind:
            (Exp_common.Opencube { census_rounds = 2; fault_tolerance = false })
          ~seed:!counter ~n:64 ~cs:(Runner.Fixed 1.0) ()
      in
      let src =
        Source.poisson ~rng:(Runner.rng env) ~n:64 ~rate:1.2 ~horizon:200.0
      in
      Runner.run_source env src;
      Runner.run_to_quiescence env)

(* Model-checker ladder: one rung per wish budget at p=2 (the state space
   grows ~30x per wish), pinning the explorer's per-state cost. *)
let () =
  reg ~name:"scale_modelcheck_p2_w2" (fun () ->
      let s = Explore.run ~p:2 ~wishes:2 () in
      assert (s.Explore.states = 51362))

(* Packed state keys: encode/decode throughput over a 256-state BFS sample
   (the visited-set key is the model checker's hottest allocation). *)
let () =
  let sample =
    let seen = Hashtbl.create 512 in
    let q = Queue.create () in
    let acc = ref [] in
    let init = Machine.initial ~p:2 ~wishes:1 in
    Hashtbl.replace seen (Machine.encode init) ();
    Queue.add init q;
    while !acc = [] || (Hashtbl.length seen < 256 && not (Queue.is_empty q)) do
      let st = Queue.pop q in
      acc := st :: !acc;
      List.iter
        (fun (_, st') ->
          let k = Machine.encode st' in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.replace seen k ();
            Queue.add st' q
          end)
        (Machine.transitions st)
    done;
    Array.of_list (List.rev !acc)
  in
  let keys = Array.map Machine.encode sample in
  reg ~name:"scale_packed_encode_256" (fun () ->
      Array.iter (fun st -> ignore (Machine.encode st : string)) sample);
  reg ~name:"scale_packed_decode_256" (fun () ->
      Array.iter (fun k -> ignore (Machine.decode k : Machine.state)) keys)

(* --- runner ---------------------------------------------------------------- *)

(* The CI slice: cheap, reliable kernels covering the tree core, the
   simulator and the model checker. *)
let quick_names =
  [
    "fig2_build_and_check_p10";
    "thm21_btransform_p10";
    "prop23_branch_stats_p10";
    "tbl_comparison_central_n64";
    "scale_btransform_chain_p10";
    "scale_btransform_chain_p16";
    "scale_btransform_chain_p18";
    "scale_btransform_chain_p20";
    "simulate_n_1M";
    "engine_churn_heap_100k";
    "sweep_open_loop_heavy_n64";
    "scale_packed_encode_256";
    "tbl_modelcheck_p2_w1";
  ]

(* Rows are (kernel, ns_per_iter, r2, method): r2 is nan for median rows,
   [method] is "ols" or "median". *)
let write_json file rows =
  let oc = open_out file in
  let num v = if Float.is_nan v then "null" else Printf.sprintf "%.4f" v in
  output_string oc "[\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun k (name, t, r2, meth) ->
      Printf.fprintf oc
        "  { \"kernel\": %S, \"ns_per_iter\": %s, \"method\": %S, \"r2\": %s \
         }%s\n"
        name (num t) meth (num r2)
        (if k = last then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc

(* Baseline parser for --compare: just enough for the format write_json
   emits (one object per line; "null" estimates fail the float scan and
   are skipped). *)
let read_json file =
  let ic = open_in file in
  let acc = ref [] in
  (try
     while true do
       let line = input_line ic in
       try
         Scanf.sscanf line " { \"kernel\": %S, \"ns_per_iter\": %f"
           (fun name ns -> acc := (name, ns) :: !acc)
       with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !acc

(* Median-of-single-shots for kernels above ~1 ms: two untimed warmup
   calls (forcing lazy environments and warming allocator arenas), then
   [shots] timed calls; the median per-op time has no regression fit to
   go wrong. *)
let run_median ~shots (name, batch, f) =
  f ();
  f ();
  let times =
    Array.init shots (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        (Unix.gettimeofday () -. t0) *. 1e9)
  in
  Array.sort Float.compare times;
  (name, times.(shots / 2) /. float_of_int batch, nan, "median")

let run_microbenchmarks ~quick =
  let cfg =
    if quick then Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.2) ~stabilize:true ()
    else Benchmark.cfg ~limit:3000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let kernels = List.rev !registry in
  let kernels =
    if quick then
      List.filter (fun (name, _, _) -> List.mem name quick_names) kernels
    else kernels
  in
  let ols_kernels =
    List.filter_map
      (fun (name, batch, k) ->
        match k with Ols t -> Some (name, batch, t) | Median _ -> None)
      kernels
  in
  let median_kernels =
    List.filter_map
      (fun (name, batch, k) ->
        match k with Median f -> Some (name, batch, f) | Ols _ -> None)
      kernels
  in
  let tests =
    Test.make_grouped ~name:"ocube" (List.map (fun (_, _, t) -> t) ols_kernels)
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let batch_of name =
    (* results are keyed "ocube/<kernel>" *)
    let base =
      match String.index_opt name '/' with
      | Some i -> String.sub name (i + 1) (String.length name - i - 1)
      | None -> name
    in
    match List.find_opt (fun (n, _, _) -> String.equal n base) ols_kernels with
    | Some (_, b, _) -> b
    | None -> 1
  in
  let table =
    Ocube_stats.Table.create
      ~title:
        "Micro-benchmarks (bechamel OLS for fast kernels, median of single \
         shots for slow ones; per-operation time, batched kernels divided \
         back)"
      ~columns:
        [
          ("kernel", Ocube_stats.Table.Left);
          ("time/op", Ocube_stats.Table.Right);
          ("fit", Ocube_stats.Table.Right);
        ]
      ()
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let time_ns =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> t /. float_of_int (batch_of name)
        | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
      in
      rows := (name, time_ns, r2, "ols") :: !rows)
    results;
  let shots = if quick then 7 else 11 in
  List.iter
    (fun k -> rows := run_median ~shots k :: !rows)
    median_kernels;
  let pretty_time ns =
    if Float.is_nan ns then "-"
    else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  let rows = List.sort compare !rows in
  List.iter
    (fun (name, t, r2, meth) ->
      Ocube_stats.Table.add_row table
        [
          name;
          pretty_time t;
          (if String.equal meth "median" then "median"
           else "r2 " ^ Ocube_stats.Table.fmt_float ~decimals:4 r2);
        ])
    rows;
  Ocube_stats.Table.print table;
  rows

let compare_against ~baseline_file ~max_regression rows =
  let baseline = read_json baseline_file in
  let table =
    Ocube_stats.Table.create
      ~title:
        (Printf.sprintf "Comparison against %s (fail beyond %.1fx)"
           baseline_file max_regression)
      ~columns:
        [
          ("kernel", Ocube_stats.Table.Left);
          ("baseline", Ocube_stats.Table.Right);
          ("now", Ocube_stats.Table.Right);
          ("ratio", Ocube_stats.Table.Right);
        ]
      ()
  in
  let pretty ns =
    if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  let worst = ref ("", 0.0) in
  let regressed = ref [] in
  List.iter
    (fun (name, now, r2, meth) ->
      match List.assoc_opt name baseline with
      | None -> ()
      | Some old when (not (Float.is_nan now)) && old > 0.0 ->
        let ratio = now /. old in
        (* A poor OLS fit means the estimate itself is unreliable (noisy
           runner, GC spike): report it but keep it out of the gate.
           Median rows carry no fit and always gate. *)
        let reliable =
          String.equal meth "median"
          || ((not (Float.is_nan r2)) && r2 >= 0.8)
        in
        if reliable then begin
          if ratio > snd !worst then worst := (name, ratio);
          if ratio > max_regression then regressed := (name, ratio) :: !regressed
        end;
        Ocube_stats.Table.add_row table
          [
            name;
            pretty old;
            pretty now;
            (if reliable then Printf.sprintf "%.2fx" ratio
             else Printf.sprintf "(%.2fx, r2 %.2f - skipped)" ratio r2);
          ]
      | Some _ -> ())
    rows;
  Ocube_stats.Table.print table;
  (* Report every kernel beyond the limit, not just the worst one: a CI
     run that trips on several fronts should say so in one pass. *)
  match List.rev !regressed with
  | [] ->
    let name, ratio = !worst in
    Printf.printf "worst ratio %.2fx (%s) - within the %.1fx limit\n" ratio
      name max_regression
  | regs ->
    List.iter
      (fun (name, ratio) ->
        Printf.printf "REGRESSION: %s is %.2fx its baseline (limit %.1fx)\n"
          name ratio max_regression)
      regs;
    exit 3

let () =
  let argv = Sys.argv in
  let argc = Array.length argv in
  let flag name = Array.exists (String.equal name) argv in
  let value name =
    let rec find i =
      if i >= argc then None
      else if String.equal argv.(i) name then
        if i = argc - 1 then begin
          Printf.eprintf "bench: %s requires an argument\n" name;
          exit 2
        end
        else Some argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  let skip_bench = flag "--no-bench" in
  let skip_experiments = flag "--no-experiments" in
  let quick = flag "--quick" in
  let json_file = value "--json" in
  let compare_file = value "--compare" in
  let max_regression =
    match value "--max-regression" with
    | Some s -> float_of_string s
    | None -> 2.0
  in
  (match value "-jobs" with
  | Some s -> Ocube_par.Pool.set_default_jobs (int_of_string s)
  | None -> (
    match value "--jobs" with
    | Some s -> Ocube_par.Pool.set_default_jobs (int_of_string s)
    | None -> ()));
  if not skip_bench then begin
    print_endline "=== Part 1: micro-benchmarks ===\n";
    let rows = run_microbenchmarks ~quick in
    (match json_file with
    | Some file ->
      write_json file rows;
      Printf.printf "wrote %d kernel estimates to %s\n" (List.length rows) file
    | None -> ());
    (match compare_file with
    | Some file -> compare_against ~baseline_file:file ~max_regression rows
    | None -> ());
    print_newline ()
  end;
  if (not skip_experiments) && not quick then begin
    print_endline "=== Part 2: paper-reproduction experiments ===\n";
    print_string (Ocube_harness.Registry.run_all ())
  end
