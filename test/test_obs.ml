(* Tests for the observability layer (lib/obs): the metrics registry,
   request spans and the exporters — plus the paper-bound checks that the
   per-request message counts recorded by the new layer obey Section 4 of
   the paper (worst case log2 N + 1, average tracking (3/4)log2 N + 5/4).

   The paper-bound tests deliberately read the *metrics*, not hand-rolled
   counters: they double as an end-to-end proof that the attribution
   pipeline (network send tap -> Message.origin -> span hop charge ->
   histogram) is wired correctly. *)

open Ocube_harness
module Metrics = Ocube_obs.Metrics
module Span = Ocube_obs.Span
module Export = Ocube_obs.Export
module Json = Ocube_obs.Json
module Histogram = Ocube_stats.Histogram
module Runner = Ocube_mutex.Runner
module Pool = Ocube_par.Pool

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* --- registry ------------------------------------------------------------- *)

let test_registry_basic () =
  let reg = Metrics.create ~n:3 () in
  let c = Metrics.counter reg ~name:"c_total" ~help:"a counter" in
  let g = Metrics.gauge reg ~name:"g" ~help:"a gauge" in
  let h = Metrics.hist reg ~name:"h" ~help:"a histogram" in
  Metrics.incr c ~node:0;
  Metrics.incr c ~node:0;
  Metrics.add c ~node:2 5;
  Metrics.set g ~node:1 3.5;
  Metrics.set_max g ~node:1 2.0;
  Metrics.set_max g ~node:1 7.25;
  Metrics.observe h ~node:0 4;
  Metrics.observe h ~node:0 4;
  Metrics.observe h ~node:2 9;
  checki "counter node 0" 2 (Metrics.counter_value c ~node:0);
  checki "counter node 1" 0 (Metrics.counter_value c ~node:1);
  checki "counter node 2" 5 (Metrics.counter_value c ~node:2);
  checkf "gauge watermark" 7.25 (Metrics.gauge_value g ~node:1);
  checki "hist count" 2 (Histogram.count (Metrics.hist_value h ~node:0));
  let s = Metrics.snapshot reg in
  checki "snapshot totals" 7 (Metrics.total_of s "c_total");
  checki "snapshot hist total" 3 (Histogram.count (Metrics.hist_total s "h"))

let test_registry_duplicate_name () =
  let reg = Metrics.create ~n:2 () in
  ignore (Metrics.counter reg ~name:"dup" ~help:"");
  checkb "duplicate registration raises" true
    (try
       ignore (Metrics.gauge reg ~name:"dup" ~help:"");
       false
     with Invalid_argument _ -> true)

(* A disabled registry must record *nothing* — and the blackout must not
   leak into measurements taken after re-enabling (the satellite
   regression: a disable/enable cycle is a measurement window boundary,
   not a buffer). *)
let test_registry_disable_enable () =
  let reg = Metrics.create ~n:2 () in
  let c = Metrics.counter reg ~name:"c" ~help:"" in
  let g = Metrics.gauge reg ~name:"g" ~help:"" in
  let h = Metrics.hist reg ~name:"h" ~help:"" in
  Metrics.incr c ~node:0;
  Metrics.set_enabled reg false;
  Metrics.incr c ~node:0;
  Metrics.add c ~node:1 10;
  Metrics.set g ~node:0 99.0;
  Metrics.set_max g ~node:0 123.0;
  Metrics.observe h ~node:0 7;
  checkb "disabled" true (not (Metrics.enabled reg));
  Metrics.set_enabled reg true;
  checki "blackout increments dropped" 1 (Metrics.counter_value c ~node:0);
  checki "blackout adds dropped" 0 (Metrics.counter_value c ~node:1);
  checkf "blackout gauge writes dropped" 0.0 (Metrics.gauge_value g ~node:0);
  checki "blackout observations dropped" 0
    (Histogram.count (Metrics.hist_value h ~node:0));
  Metrics.incr c ~node:0;
  checki "recording resumes cleanly" 2 (Metrics.counter_value c ~node:0)

let test_registry_reset () =
  let reg = Metrics.create ~n:1 () in
  let c = Metrics.counter reg ~name:"c" ~help:"" in
  let h = Metrics.hist reg ~name:"h" ~help:"" in
  Metrics.incr c ~node:0;
  Metrics.observe h ~node:0 3;
  Metrics.reset reg;
  checki "counter zeroed" 0 (Metrics.counter_value c ~node:0);
  checki "hist zeroed" 0 (Histogram.count (Metrics.hist_value h ~node:0))

(* --- snapshots: merge / diff / equal -------------------------------------- *)

let two_registries () =
  let make () =
    let reg = Metrics.create ~n:2 () in
    let c = Metrics.counter reg ~name:"c" ~help:"" in
    let g = Metrics.gauge reg ~name:"g" ~help:"" in
    let h = Metrics.hist reg ~name:"h" ~help:"" in
    (reg, c, g, h)
  in
  let ra, ca, ga, ha = make () in
  let rb, cb, gb, hb = make () in
  Metrics.add ca ~node:0 3;
  Metrics.set_max ga ~node:1 5.0;
  Metrics.observe ha ~node:0 2;
  Metrics.add cb ~node:0 4;
  Metrics.add cb ~node:1 1;
  Metrics.set_max gb ~node:1 3.0;
  Metrics.observe hb ~node:0 2;
  Metrics.observe hb ~node:1 9;
  (Metrics.snapshot ra, Metrics.snapshot rb)

let test_snapshot_merge () =
  let sa, sb = two_registries () in
  let m = Metrics.merge sa sb in
  checki "counters add" 8 (Metrics.total_of m "c");
  checki "hists add" 3 (Histogram.count (Metrics.hist_total m "h"));
  (match Metrics.find_row m "g" with
  | Some { Metrics.data = Metrics.S_gauge a; _ } ->
    checkf "gauges take the max" 5.0 a.(1)
  | _ -> Alcotest.fail "gauge row missing");
  checkb "merge commutes" true (Metrics.equal m (Metrics.merge sb sa))

let test_snapshot_diff () =
  let sa, sb = two_registries () in
  let m = Metrics.merge sa sb in
  let d = Metrics.diff ~later:m ~earlier:sa in
  checkb "diff recovers the other shard (counters/hists)" true
    (Metrics.total_of d "c" = Metrics.total_of sb "c"
    && Histogram.equal (Metrics.hist_total d "h") (Metrics.hist_total sb "h"))

let test_snapshot_equal () =
  let sa, _ = two_registries () in
  let sb, _ = two_registries () in
  checkb "same recordings are equal" true (Metrics.equal sa sb);
  checkb "different recordings are not" false
    (Metrics.equal sa (Metrics.merge sa sb))

(* --- spans ----------------------------------------------------------------- *)

let test_span_lifecycle () =
  let t = Span.create ~n:2 in
  Span.open_span t ~node:0 ~time:10.0 ~busy:0.0;
  Span.note_hop t ~node:0;
  Span.note_hop t ~node:0;
  Span.note_hop t ~node:1;
  (* no span open: ignored *)
  checki "one open" 1 (Span.open_count t);
  (* Wait 10..16; the busy integral grew by 2.5 during it (someone else's
     CS), so queueing = 2.5 and transit = 3.5. *)
  Span.enter t ~node:0 ~time:16.0 ~busy:2.5;
  (match Span.close t ~node:0 ~time:17.0 with
  | None -> Alcotest.fail "span did not close"
  | Some sp ->
    checki "hops" 2 sp.Span.hops;
    checkf "queueing" 2.5 sp.Span.queueing;
    checkf "transit" 3.5 sp.Span.transit;
    checkf "service" 1.0 sp.Span.service;
    checkf "wait" 6.0 (Span.wait sp);
    checkf "duration" 7.0 (Span.duration sp);
    checkb "completed" true sp.Span.completed);
  checki "none open" 0 (Span.open_count t);
  checki "one closed" 1 (Span.closed_count t)

let test_span_abandon_and_faults () =
  let t = Span.create ~n:2 in
  Span.open_span t ~node:0 ~time:0.0 ~busy:0.0;
  Span.open_span t ~node:1 ~time:1.0 ~busy:0.0;
  Span.fault_tick t;
  (match Span.abandon t ~node:0 ~time:5.0 ~busy:2.0 with
  | None -> Alcotest.fail "abandon returned nothing"
  | Some sp ->
    checkb "not completed" false sp.Span.completed;
    checkb "never entered" true (sp.Span.enter_time = None);
    checkf "queueing up to the death" 2.0 sp.Span.queueing;
    checki "saw the fault" 1 sp.Span.faults);
  Span.fault_tick t;
  Span.enter t ~node:1 ~time:6.0 ~busy:1.0;
  (match Span.close t ~node:1 ~time:7.0 with
  | Some sp -> checki "survivor saw both fault events" 2 sp.Span.faults
  | None -> Alcotest.fail "survivor span missing");
  checki "double-abandon is a no-op" 0
    (match Span.abandon t ~node:0 ~time:9.0 ~busy:0.0 with
    | None -> 0
    | Some _ -> 1)

(* --- paper bound: per-request messages <= log2 N + 1 ----------------------- *)

(* Saturated closed-loop run: every node wishes at t = 0, then a second
   full round on the evolved structure. The metrics histogram (fed by the
   send tap through Message.origin) must show every single request at or
   under the paper's worst case of log2 N + 1 messages. *)
let saturated_bound ~p () =
  let n = 1 lsl p in
  let env, _ =
    Exp_common.make_opencube ~fault_tolerance:false ~metrics:true ~p ()
  in
  for round = 1 to 2 do
    for node = 0 to n - 1 do
      Runner.submit env node
    done;
    Runner.run_to_quiescence env;
    ignore round
  done;
  checki "all requests served" (2 * n) (Runner.cs_entries env);
  checki "no violations" 0 (Runner.violations env);
  let spans = Option.get (Runner.spans env) in
  checki "every span closed" (2 * n) (Span.closed_count spans);
  List.iter
    (fun sp ->
      if sp.Span.hops > p + 1 then
        Alcotest.failf "request %d of node %d cost %d messages (bound %d)"
          sp.Span.index sp.Span.node sp.Span.hops (p + 1))
    (Span.closed spans);
  (* Same bound read back through the histogram metric. *)
  let snap = Option.get (Runner.metrics_snapshot env) in
  let hops = Metrics.hist_total snap "request_hops" in
  checki "histogram saw every request" (2 * n) (Histogram.count hops);
  checkb "histogram max under the paper bound" true
    (match Histogram.max_value hops with Some m -> m <= p + 1 | None -> false);
  (* Attribution is conservative: it never invents messages. Spans charge
     a subset of all sends (loan-return tokens are unattributed). *)
  let charged =
    List.fold_left (fun acc sp -> acc + sp.Span.hops) 0 (Span.closed spans)
  in
  checkb "charged <= sent" true (charged <= Runner.messages_sent env);
  checki "send tap counts every message"
    (Runner.messages_sent env)
    (Metrics.total_of snap "messages_sent_total")

let test_bound_n8 () = saturated_bound ~p:3 ()

let test_bound_n16 () = saturated_bound ~p:4 ()

let test_bound_n32 () = saturated_bound ~p:5 ()

(* --- paper average: alpha_p and (3/4)log2N + 5/4 --------------------------- *)

(* One isolated request per node on a fresh cube (the paper's Section 4
   cost model). The merged metrics must reproduce alpha_p *exactly*, and
   the empirical mean must track the asymptotic closed form. *)
let test_mean_tracks_recurrence () =
  Pool.with_pool ~jobs:1 (fun pool ->
      List.iter
        (fun p ->
          let n = 1 lsl p in
          let snap = Exp_average.merged_metrics ~pool ~p in
          let total = Metrics.total_of snap "messages_sent_total" in
          checki
            (Printf.sprintf "alpha_%d from metrics" p)
            (Exp_common.alpha p) total;
          checki
            (Printf.sprintf "wishes at p=%d" p)
            n
            (Metrics.total_of snap "wishes_total");
          let mean = float_of_int total /. float_of_int n in
          let predicted = Exp_common.average_formula n in
          let rel = Float.abs (mean -. predicted) /. predicted in
          if rel > 0.25 then
            Alcotest.failf
              "p=%d: mean %.3f vs closed form %.3f (relative error %.3f)" p
              mean predicted rel)
        [ 3; 4; 5 ])

(* --- event-queue watermark ---------------------------------------------------- *)

(* The queue-depth gauge is the engine's own maximum, copied in when the
   registry is read. A reference step hook, sampling after every fired
   event, must see exactly the value the gauge reports, on a run with
   faults and recoveries. *)
let test_pending_watermark_matches_step_hook () =
  let env, _ = Exp_common.make_opencube ~seed:17 ~metrics:true ~p:4 () in
  let engine = Runner.engine env in
  let reference = ref 0 in
  ignore
    (Ocube_sim.Engine.add_step_hook engine (fun () ->
         reference := max !reference (Ocube_sim.Engine.pending engine)));
  let rng = Ocube_sim.Rng.create 17 in
  Runner.run_arrivals env
    (List.init 48 (fun k ->
         (0.5 *. float_of_int k, Ocube_sim.Rng.int rng 16)));
  Runner.schedule_faults env
    [
      { Ocube_workload.Faults.at = 3.0; node = 5; recover_after = Some 20.0 };
      { Ocube_workload.Faults.at = 9.0; node = 11; recover_after = Some 15.0 };
    ];
  Runner.run_to_quiescence env;
  checkb "the run queued events" true (!reference > 1);
  let snap = Option.get (Runner.metrics_snapshot env) in
  match Metrics.find_row snap "engine_pending_events_max" with
  | Some { Metrics.data = Metrics.S_gauge v; _ } ->
    checki "gauge = reference hook maximum" !reference
      (int_of_float v.(0))
  | _ -> Alcotest.fail "engine_pending_events_max gauge missing"

(* --- exporters -------------------------------------------------------------- *)

let run_with_obs () =
  let env, _ =
    Exp_common.make_opencube ~seed:9 ~fault_tolerance:false ~metrics:true
      ~trace:true ~p:3 ()
  in
  let n = 8 in
  for node = 0 to n - 1 do
    Runner.submit env node
  done;
  Runner.run_to_quiescence env;
  env

let test_prometheus_output () =
  let env = run_with_obs () in
  let s = Export.prometheus (Option.get (Runner.metrics_snapshot env)) in
  let has needle = Tutil.contains s needle in
  checkb "help line" true (has "# HELP ocube_wishes_total");
  checkb "type line" true (has "# TYPE ocube_request_hops histogram");
  checkb "labels" true (has "{algo=\"opencube\",node=\"0\"}");
  checkb "cumulative buckets" true (has "_bucket{algo=\"opencube\"");
  checkb "+Inf bucket" true (has "le=\"+Inf\"");
  checkb "count series" true (has "ocube_request_hops_count")

let test_json_outputs_are_valid () =
  let env = run_with_obs () in
  let snap = Option.get (Runner.metrics_snapshot env) in
  (match Json.check (Export.json snap) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "metrics JSON invalid: %s" m);
  let spans = Option.get (Runner.spans env) in
  let trace =
    match Runner.trace env with
    | Some t -> Ocube_sim.Trace.entries t
    | None -> []
  in
  checkb "trace has entries" true (List.length trace > 0);
  match Json.check (Export.chrome_trace ~trace ~spans:(Span.closed spans) ()) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "chrome trace JSON invalid: %s" m

let test_json_checker_rejects_garbage () =
  List.iter
    (fun bad ->
      match Json.check bad with
      | Ok () -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ ""; "{"; "{\"a\":}"; "[1,2,]"; "{\"a\":1} trailing"; "\"unclosed" ]

(* Metrics off: the observability surface is absent and the run result is
   identical — the tap really is passive. *)
let test_metrics_off_is_identical () =
  let run ~metrics =
    let env, _ =
      Exp_common.make_opencube ~seed:5 ~fault_tolerance:false ~metrics ~p:4 ()
    in
    let arrivals =
      Runner.Arrivals.poisson ~rng:(Runner.rng env) ~n:16 ~rate_per_node:0.05
        ~horizon:200.0
    in
    Runner.run_arrivals env arrivals;
    Runner.run_to_quiescence env;
    (Runner.cs_entries env, Runner.messages_sent env, Runner.wait_samples env)
  in
  let e1, m1, w1 = run ~metrics:false in
  let e2, m2, w2 = run ~metrics:true in
  checki "same entries" e1 e2;
  checki "same messages" m1 m2;
  Alcotest.(check (list (float 0.0))) "same waits bit-for-bit" w1 w2

(* --- qcheck: span arithmetic ------------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:300 ~name:"span phases non-negative and additive"
      (quad
         (float_range 0.0 1000.0)
         (float_range 0.0 50.0)
         (float_range 0.0 50.0)
         (float_range 0.0 50.0))
      (fun (t0, dq, dt, ds) ->
        let t = Span.create ~n:1 in
        Span.open_span t ~node:0 ~time:t0 ~busy:0.0;
        Span.enter t ~node:0 ~time:(t0 +. dq +. dt) ~busy:dq;
        match Span.close t ~node:0 ~time:(t0 +. dq +. dt +. ds) with
        | None -> false
        | Some sp ->
          let tol = 1e-9 *. (1.0 +. t0 +. dq +. dt +. ds) in
          sp.Span.queueing >= 0.0 && sp.Span.transit >= 0.0
          && sp.Span.service >= 0.0
          && Span.duration sp >= 0.0
          && Float.abs (sp.Span.queueing -. dq) <= tol
          && Float.abs (sp.Span.transit -. dt) <= tol
          && Float.abs (sp.Span.service -. ds) <= tol
          && Float.abs (Span.wait sp +. sp.Span.service -. Span.duration sp)
             <= tol);
    Test.make ~count:200 ~name:"abandoned span phases still non-negative"
      (pair (float_range 0.0 100.0) (float_range 0.0 100.0))
      (fun (t0, dw) ->
        let t = Span.create ~n:1 in
        Span.open_span t ~node:0 ~time:t0 ~busy:0.0;
        (* busy can grow by at most the elapsed wait *)
        let busy = Float.min dw (dw /. 2.0) in
        match Span.abandon t ~node:0 ~time:(t0 +. dw) ~busy with
        | None -> false
        | Some sp ->
          sp.Span.queueing >= 0.0 && sp.Span.transit >= 0.0
          && sp.Span.service = 0.0
          && (not sp.Span.completed)
          && sp.Span.enter_time = None);
  ]

let suite =
  [
    Alcotest.test_case "registry counters/gauges/histograms" `Quick
      test_registry_basic;
    Alcotest.test_case "registry rejects duplicate names" `Quick
      test_registry_duplicate_name;
    Alcotest.test_case "disabled registry records nothing" `Quick
      test_registry_disable_enable;
    Alcotest.test_case "registry reset" `Quick test_registry_reset;
    Alcotest.test_case "snapshot merge adds and commutes" `Quick
      test_snapshot_merge;
    Alcotest.test_case "snapshot diff is a window" `Quick test_snapshot_diff;
    Alcotest.test_case "snapshot equality" `Quick test_snapshot_equal;
    Alcotest.test_case "span lifecycle and phase split" `Quick
      test_span_lifecycle;
    Alcotest.test_case "span abandon and fault overlap" `Quick
      test_span_abandon_and_faults;
    Alcotest.test_case "paper bound log2N+1 at N=8" `Quick test_bound_n8;
    Alcotest.test_case "paper bound log2N+1 at N=16" `Quick test_bound_n16;
    Alcotest.test_case "paper bound log2N+1 at N=32" `Quick test_bound_n32;
    Alcotest.test_case "mean tracks the Section 4 recurrence" `Quick
      test_mean_tracks_recurrence;
    Alcotest.test_case "prometheus exporter shape" `Quick
      test_prometheus_output;
    Alcotest.test_case "JSON exporters are well-formed" `Quick
      test_json_outputs_are_valid;
    Alcotest.test_case "JSON checker rejects malformed input" `Quick
      test_json_checker_rejects_garbage;
    Alcotest.test_case "metrics off leaves the run identical" `Quick
      test_metrics_off_is_identical;
  ]
  @ List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qcheck_tests
  @ [
      Alcotest.test_case "queue watermark = step-hook maximum" `Quick
        test_pending_watermark_matches_step_hook;
    ]
