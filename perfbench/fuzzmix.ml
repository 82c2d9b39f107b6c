(* fuzz_mix: a fixed-size slice of the fuzzer's scenario stream, each
   scenario run through [Fuzz.run] with the invariant oracle on — six
   algorithms, p = 1..5, a minority of open-cube runs with faults, many
   tiny environments and shallow queues. *)

open Ocube_mutex
module Scenario = Ocube_check.Scenario
module Fuzz = Ocube_check.Fuzz
module Opencube = Ocube_topology.Opencube
module Pspec = Ocube_proc.Spec

let slice = 15_000

let opts = Scenario.default_opts

let generate ~seed =
  Array.init slice (fun index -> Scenario.of_index ~fuzz_seed:seed ~index ~opts)

(* The fuzzer's own order-sensitive digest mix, so a slice's checksum can
   be compared with [Fuzz.campaign]'s. *)
let mix acc (d : Fuzz.digest) =
  let h = Hashtbl.hash d in
  acc lxor (h + 0x9e3779b9 + (acc lsl 6) + (acc lsr 2))

let proc_algo = function
  | Scenario.Opencube -> Pspec.Opencube
  | Scenario.Raymond -> Pspec.Raymond
  | Scenario.Naimi_trehel -> Pspec.Naimi_trehel
  | Scenario.Central -> Pspec.Central
  | Scenario.Suzuki_kasami -> Pspec.Suzuki_kasami
  | Scenario.Ricart_agrawala -> Pspec.Ricart_agrawala

(* [Fuzz.build] over any simulator runtime, with the metrics taps
   selectable and the open-cube statistics kept. Constructs exactly the
   automata [Fuzz.build] does. *)
module Build (R : Runtime.S with type t = Types.Net.t) = struct
  module A = Opencube_algo.Make (R)
  module S = Pspec.Build (R)

  let structure a () =
    match A.check_opencube a with
    | Error _ as e -> e
    | Ok () ->
      let cube = Opencube.of_fathers (A.snapshot_tree a) in
      let pmax = Opencube.pmax cube in
      let rec loop i =
        if i = Opencube.order cube then Ok ()
        else
          let r, n1 = Opencube.branch_stats cube i in
          if r > pmax - n1 then Error (Printf.sprintf "branch bound violated at node %d" i)
          else loop (i + 1)
      in
      loop 0

  let build ~metrics ~wrap ~on_opencube (s : Scenario.t) : Fuzz.built =
    let n = Scenario.nodes s in
    let env = Runner.make_env ~seed:s.seed ~n ~delay:s.delay ~cs:s.cs ~metrics () in
    let net = Runner.net env and callbacks = Runner.callbacks env in
    let inst, structure =
      match s.algo with
      | Scenario.Opencube ->
        let config =
          {
            (Opencube_algo.default_config ~p:s.p) with
            fault_tolerance = s.ft;
            asker_patience = s.patience;
            queue_policy = (if s.lifo then Opencube_algo.Lifo else Opencube_algo.Fifo);
          }
        in
        let a = A.create ~net ~callbacks ~config in
        on_opencube (fun () -> A.stats a);
        (A.instance a, Some (structure a))
      | algo ->
        let params = { Pspec.p = s.p; ft = s.ft; patience = s.patience; lifo = s.lifo } in
        (S.build (proc_algo algo) ~params ~net ~callbacks, None)
    in
    let inst = wrap inst in
    Runner.attach env inst;
    { Fuzz.env; inst; structure }
end

module Plain = Build (Runtime.Sim)
module Traced = Build (Timed)

(* Exact outcome of one pass over the slice, and its chunk times. *)
type pass = {
  checksum : int;
  digests : (Fuzz.digest, string) result array;
  waits : float list;  (** pooled, in scenario then service order *)
  fault_messages : int;
  spans : Ocube_obs.Span.span list array;
  chunk_times : Common.sample array;
}

(* Scenarios per timed chunk; the heap is settled between chunks. *)
let chunk = 500

let is_safety_error e = not (String.length e >= 8 && String.sub e 0 8 = "liveness")

(* Run the slice in chunks. [build] defaults to the fuzzer's own builder;
   the env it returns is read after the run for waits and message
   categories ([collect]) and spans. *)
let run_pass ?(build = Fuzz.build) ?(per_scenario = fun _ _ -> ()) ?(collect = true)
    ?(gc = Layers.gc_zero ()) scenarios =
  let last = ref None in
  let record s =
    let b = build s in
    last := Some b.Fuzz.env;
    b
  in
  let n = Array.length scenarios in
  let cks = ref 0 and waits = ref [] and fm = ref 0 in
  let spans = Array.make n [] in
  let digests = Array.make n (Error "not run") in
  let one i =
    let s = scenarios.(i) in
    let t0 = Common.clock () in
    let r = Fuzz.run ~build:record s in
    per_scenario s (Common.clock () -. t0);
    (match (r, !last) with
    | Ok d, Some env ->
      cks := mix !cks d;
      if collect then begin
        waits := List.rev_append (Runner.wait_samples env) !waits;
        fm := !fm + Runner.fault_overhead_messages env;
        match Runner.spans env with
        | Some sp -> spans.(i) <- Ocube_obs.Span.closed sp
        | None -> ()
      end
    | _ -> ());
    last := None;
    digests.(i) <- r
  in
  let chunk_times =
    Array.init ((n + chunk - 1) / chunk) (fun c ->
        snd
          (Common.timed_part (fun () ->
               Layers.gc_count gc (fun () ->
                   for i = c * chunk to min n ((c + 1) * chunk) - 1 do
                     one i
                   done))))
  in
  { checksum = !cks; digests; waits = !waits; fault_messages = !fm; spans; chunk_times }

let fold_ok p f = Array.fold_left (fun acc r -> match r with Ok d -> acc + f d | Error _ -> acc) 0 p.digests

let accounting scenarios p =
  let attempted = ref 0 and failed = ref 0 and safe = ref true in
  Array.iteri
    (fun i r ->
      match r with
      | Ok (d : Fuzz.digest) ->
        attempted := !attempted + d.issued;
        failed := !failed + d.abandoned + d.outstanding
      | Error e ->
        let a = List.length scenarios.(i).Scenario.arrivals in
        attempted := !attempted + a;
        failed := !failed + a;
        Printf.printf "fuzz_mix scenario %d failed: %s\n%!" i e;
        if is_safety_error e then safe := false)
    p.digests;
  (!attempted, !failed, !safe)

let same_digests a b =
  Array.for_all2
    (fun x y ->
      match (x, y) with
      | Ok d, Ok e -> Fuzz.equal_digest d e
      | Error e1, Error e2 -> String.equal e1 e2
      | _ -> false)
    a.digests b.digests

let setup_rounds = 5

let run ~seed ~seconds =
  let setups =
    List.init setup_rounds (fun _ ->
        Common.corrected (snd (Common.timed_part (fun () -> generate ~seed))))
  in
  let scenarios = generate ~seed in
  (* later passes keep only their checksum and chunk times *)
  let first = ref None in
  let reps =
    Common.repeat ~seconds ~min_reps:2 (fun i ->
        let p = run_pass ~collect:(i = 0) scenarios in
        if i = 0 then first := Some p;
        (p.checksum, p.chunk_times))
    |> List.map fst
  in
  let first = Option.get !first in
  let parts = List.map snd reps in
  Common.print_corrected "fuzz_mix (parts: 500-scenario chunks)" parts;
  Printf.printf "fuzz_mix setup rounds, host-corrected: %s s (median used)\n%!"
    (String.concat " " (List.map (Printf.sprintf "%.6f") setups));
  (* read before the campaign cross-check, which is not part of the workload *)
  let rss = Common.peak_rss_mb () in
  let attempted, failed, safe = accounting scenarios first in
  let consistent = List.for_all (fun (c, _) -> c = first.checksum) reps in
  (* cross-check against the library's own campaign over the same slice;
     skipped after a failure, which the campaign would go on to shrink *)
  let campaign_ok =
    if Array.exists Result.is_error first.digests then true
    else begin
      let r = Fuzz.campaign ~iters:slice ~fuzz_seed:seed () in
      r.Fuzz.ran = slice && r.Fuzz.failure = None && r.Fuzz.checksum = first.checksum
    end
  in
  Printf.printf "fuzz_mix checksum %d (campaign agrees: %b)\n%!" first.checksum campaign_ok;
  let entries = fold_ok first (fun d -> d.entries) in
  let w = Stat.sorted_copy first.waits in
  {
    Common.correct = safe && consistent && campaign_ok && Array.length w >= 1000;
    attempted;
    failed;
    metrics =
      Common.
        [
          m "setup_s" "s" (Stat.median setups);
          m "ops_per_s" "1/s" (float_of_int entries /. Common.corrected_sum parts);
          m "msgs_per_op" "msgs/op" (per (float_of_int (fold_ok first (fun d -> d.messages))) entries);
          m "wait_p50_vt" "vt" (Stat.percentile_sorted w 0.50);
          m "wait_p90_vt" "vt" (Stat.percentile_sorted w 0.90);
          m "peak_rss_mb" "MB" rss;
        ];
  }

let trace ~seed =
  let scenarios, t_gen = Common.timed (fun () -> generate ~seed) in
  (* 1. untraced, with the builder timed per scenario and per algorithm *)
  let nalgo = List.length Scenario.all_algos in
  let idx a =
    let rec go i = function
      | [] -> assert false
      | x :: r -> if x = a then i else go (i + 1) r
    in
    go 0 Scenario.all_algos
  in
  let algo_time = Array.make nalgo 0.0 and algo_build = Array.make nalgo 0.0 in
  let algo_n = Array.make nalgo 0 in
  let cur_build = ref 0.0 in
  let timed_build s =
    let t0 = Common.clock () in
    let b = Fuzz.build s in
    cur_build := Common.clock () -. t0;
    b
  in
  let per_scenario (s : Scenario.t) dt =
    let i = idx s.algo in
    algo_time.(i) <- algo_time.(i) +. dt;
    algo_build.(i) <- algo_build.(i) +. !cur_build;
    algo_n.(i) <- algo_n.(i) + 1
  in
  let gc = Layers.gc_zero () in
  let total p = Common.raw_total p.chunk_times in
  let corrected_of p = Common.corrected_total p.chunk_times in
  let base = run_pass ~build:timed_build ~per_scenario ~gc scenarios in
  let t_untraced = total base in
  (* 2. every protocol effect timed, step hook counting *)
  let steps = Layers.steps_zero () in
  let stats = ref [] in
  let traced_build s =
    let b = Traced.build ~metrics:false ~wrap:Timed.wrap_instance
        ~on_opencube:(fun f -> stats := f :: !stats) s in
    Layers.count_steps steps (Runner.engine b.Fuzz.env);
    b
  in
  Timed.reset ();
  let traced = run_pass ~build:traced_build scenarios in
  let t_traced = total traced in
  let dispatch = t_traced -. Timed.timed_total () in
  let st = List.map (fun f -> f ()) !stats in
  (* 3. metrics taps on *)
  let tapped = run_pass ~build:(Plain.build ~metrics:true ~wrap:Fun.id ~on_opencube:ignore) scenarios in
  let c_taps = corrected_of tapped in
  let c = Timed.c in
  let entries = fold_ok base (fun d -> d.entries) in
  let messages = fold_ok base (fun d -> d.messages) in
  let sum f = List.fold_left (fun a s -> a + f s) 0 st in
  let searches = sum (fun s -> s.Opencube_algo.searches_started) in
  let all_spans = Array.to_list tapped.spans in
  let open Common in
  let total_build = Array.fold_left ( +. ) 0.0 algo_build in
  let total_run = Array.fold_left ( +. ) 0.0 algo_time in
  let per_algo =
    List.map
      (fun a ->
        let i = idx a in
        ( "check.run_us." ^ Scenario.algo_name a,
          us_per (algo_time.(i) -. algo_build.(i)) algo_n.(i) ))
      Scenario.all_algos
  in
  Printf.printf
    "fuzz_mix layers (traced run, s): handler %.3f  timer_cb %.3f  send %.3f  timer_arm %.3f  \
     wire %.3f  dispatch %.3f  = %.3f; untraced %.3f; host-corrected overhead %.1f%%\n%!"
    c.handler_s c.timer_cb_s c.send_s c.arm_s (c.encode_s +. c.decode_s) dispatch t_traced
    t_untraced (pct_over (corrected_of traced) (corrected_of base));
  let values =
    [
      ("sim.dispatch_ns", ns_per dispatch steps.events);
      ("sim.timer_arms_per_op", per (float_of_int c.arms) entries);
      ("sim.timer_cancels_per_op", per (float_of_int c.cancels) entries);
      ("sim.timer_arm_ns", ns_per c.arm_s c.arms);
      ("net.send_ns", ns_per c.send_s c.sends);
      ("net.drops_per_op", per (float_of_int (fold_ok base (fun d -> d.dropped))) entries);
      ("mutex.handler_ns", ns_per c.handler_s c.handler_calls);
      ("mutex.timer_cb_ns", ns_per c.timer_cb_s c.timer_cb_calls);
      ("mutex.fault_msg_share", per (float_of_int base.fault_messages) messages);
      ("mutex.searches_per_op", per (float_of_int searches) entries);
      ("mutex.probes_per_search", per (float_of_int (sum (fun s -> s.Opencube_algo.search_nodes_tested))) searches);
      ("mutex.enquiries_per_op", per (float_of_int (sum (fun s -> s.Opencube_algo.enquiries_sent))) entries);
      ("mutex.regenerations", float_of_int (sum (fun s -> s.Opencube_algo.token_regenerations)));
      ("mutex.entries_per_search", per (float_of_int entries) searches);
      ("mutex.queueing_share", Stat.queueing_share (List.concat all_spans));
      ( "mutex.service_gap_vt",
        List.fold_left (fun a sp -> Float.max a (Stat.service_gap sp)) 0.0 all_spans );
      ("check.gen_us", us_per t_gen slice);
      ("check.build_us", us_per total_build slice);
      ("check.run_us", us_per (total_run -. total_build) slice);
      ("obs.tap_overhead_pct", pct_over c_taps (corrected_of base));
      ("wire.encode_ns", ns_per c.encode_s c.sends);
      ("wire.decode_ns", ns_per c.decode_s c.sends);
      ("wire.bytes_per_msg", per (float_of_int c.wire_bytes) c.sends);
      ("gc.minor_words_per_op", per gc.Layers.minor_words entries);
      ("gc.major_collections", float_of_int gc.Layers.majors);
      ("trace.overhead_pct", pct_over (corrected_of traced) (corrected_of base));
      ("mutex.wait_p99_vt", Stat.percentile_sorted (Stat.sorted_copy base.waits) 0.99);
    ]
    @ per_algo @ Layers.step_values steps ~entries
  in
  let attempted, failed, safe = accounting scenarios base in
  {
    correct = safe && same_digests base traced && same_digests base tapped;
    attempted;
    failed;
    metrics = Layers.report ~absent:[ "mutex.nofault"; "proc." ] values;
  }
