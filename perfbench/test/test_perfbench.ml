(* The benchmark's own checks: its estimators on hand-made inputs, and
   that instrumenting a run leaves every exact metric unchanged. *)

open Perfbench
module Span = Ocube_obs.Span
module Fuzz = Ocube_check.Fuzz
module Scenario = Ocube_check.Scenario

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close a b = Float.abs (a -. b) < 1e-12

let test_quartiles () =
  check "lower quartile of 1..5" (close (Stat.lower_quartile [ 5.; 1.; 4.; 2.; 3. ]) 2.0);
  check "lower quartile interpolates" (close (Stat.lower_quartile [ 1.; 2.; 3.; 4. ]) 1.75);
  check "median of even sample" (close (Stat.median [ 4.; 1.; 3.; 2. ]) 2.5);
  check "quantile of one sample" (close (Stat.lower_quartile [ 7. ]) 7.0);
  check "quantile rejects empty"
    (match Stat.lower_quartile [] with _ -> false | exception Invalid_argument _ -> true);
  let a = Stat.sorted_copy (List.init 100 (fun i -> float_of_int (100 - i))) in
  check "nearest-rank p99 of 1..100" (close (Stat.percentile_sorted a 0.99) 99.0);
  check "nearest-rank p50 of 1..100" (close (Stat.percentile_sorted a 0.50) 50.0)

let test_part_sums () =
  let parts = [ [| 3.0; 1.0 |]; [| 2.0; 4.0 |]; [| 5.0; 1.5 |] ] in
  check "fastest part of each repetition" (close (Common.fastest_sum parts) 3.0);
  let s t ref_t = { Common.t; ref_t } in
  let n = Common.reference_nominal in
  (* a part that took twice as long while the reference also did is
     corrected back to its fast time *)
  let reps = [ [| s 1.0 n |]; [| s 2.0 (2.0 *. n) |]; [| s 3.0 n |] ] in
  check "host-corrected median" (close (Common.corrected_sum reps) 1.0)

let span ?enter ~node ~open_ ~close () =
  {
    Span.node;
    index = 0;
    open_time = open_;
    enter_time = enter;
    close_time = close;
    hops = 0;
    queueing = 0.0;
    transit = 0.0;
    service = 0.0;
    faults = 0;
    completed = Option.is_some enter;
  }

let test_service_gap () =
  (* 0..2 waiting with nobody in CS; the hand-off at 3 is instantaneous *)
  let a = span ~node:0 ~open_:0.0 ~enter:2.0 ~close:3.0 () in
  let b = span ~node:1 ~open_:1.0 ~enter:3.0 ~close:4.0 () in
  check "gap before the first entry" (close (Stat.service_gap [ a; b ]) 2.0);
  (* a wish abandoned at 9 after waiting from 5 with the CS empty *)
  let c = span ~node:2 ~open_:5.0 ~close:9.0 () in
  check "gap of an abandoned wish" (close (Stat.service_gap [ a; b; c ]) 4.0);
  (* a waiting wish overlapping a CS is not a gap *)
  let d = span ~node:0 ~open_:0.0 ~enter:0.0 ~close:10.0 () in
  let e = span ~node:1 ~open_:1.0 ~enter:10.5 ~close:11.0 () in
  check "gap only once the CS empties" (close (Stat.service_gap [ d; e ]) 0.5);
  check "no spans, no gap" (close (Stat.service_gap []) 0.0)

let test_queueing_share () =
  let s q t = { (span ~node:0 ~open_:0.0 ~enter:(q +. t) ~close:(q +. t +. 1.) ()) with queueing = q; transit = t } in
  check "queueing share" (close (Stat.queueing_share [ s 1.0 1.0; s 3.0 1.0 ]) (4.0 /. 6.0))

(* A small des_ft replica: identical outcome twice, and identical under the
   timing wrapper. *)
let test_des_exact () =
  let prm = { Des.default with p = 5; horizon = 200.0; replicas = 1 } in
  let run_plain () =
    let env, a = Des.Plain.build ~mode:Des.workload_mode prm ~seed:7 () in
    Des.Plain.run env a
  in
  let x = run_plain () and y = run_plain () in
  let env, a = Des.Traced.build ~wrap:Timed.wrap_instance ~mode:Des.workload_mode prm ~seed:7 () in
  let z = Des.Traced.run env a in
  check "des replica has traffic" (x.Des.entries > 20);
  check "des replica repeats exactly" (Des.same_exact x y);
  check "des timing wrapper changes nothing" (Des.same_exact x z && x.Des.stats = z.Des.stats)

(* The first scenarios of a fuzz stream: the benchmark's builders mirror
   [Fuzz.build] exactly, and its checksum is the campaign's. *)
let test_fuzz_exact () =
  let k = 60 in
  let sc = Array.init k (fun index -> Scenario.of_index ~fuzz_seed:3 ~index ~opts:Scenario.default_opts) in
  let base = Fuzzmix.run_pass sc in
  let traced =
    Fuzzmix.run_pass
      ~build:(Fuzzmix.Traced.build ~metrics:false ~wrap:Timed.wrap_instance ~on_opencube:ignore)
      sc
  in
  let tapped =
    Fuzzmix.run_pass ~build:(Fuzzmix.Plain.build ~metrics:true ~wrap:Fun.id ~on_opencube:ignore) sc
  in
  check "fuzz traced digests equal" (Fuzzmix.same_digests base traced);
  check "fuzz metrics-on digests equal" (Fuzzmix.same_digests base tapped);
  let r = Fuzz.campaign ~iters:k ~fuzz_seed:3 () in
  check "fuzz checksum is the campaign's" (r.Fuzz.checksum = base.Fuzzmix.checksum && r.Fuzz.ran = k)

let () =
  test_quartiles ();
  test_part_sums ();
  test_service_gap ();
  test_queueing_share ();
  test_des_exact ();
  test_fuzz_exact ();
  if !failures > 0 then exit 1
