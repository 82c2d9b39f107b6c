(* des_ft_open_n1024: the open cube with the Section 5 machinery armed
   (default config), N = 1024, constant delta = 1, CS fixed at 1, open-loop
   Poisson wishes and fail-stop faults with recovery, metrics and spans on
   as the saturation sweep runs them.

   In this regime ill-founded suspicions feed on each other: the storm's
   size differs several-fold between seeds (see NOTES.md), so one run is
   an ensemble of independent replicas, each with its own sub-seed, and
   the figures are pooled over the ensemble. *)

open Ocube_mutex
module Engine = Ocube_sim.Engine
module Rng = Ocube_sim.Rng
module Source = Ocube_workload.Source
module Faults = Ocube_workload.Faults
module Span = Ocube_obs.Span

type params = {
  p : int;
  rate : float;  (** aggregate wishes per delta *)
  horizon : float;
  faults : int;  (** per replica, evenly spaced over the horizon *)
  recover_after : float;
  replicas : int;
}

let default =
  { p = 10; rate = 0.3; horizon = 500.0; faults = 2; recover_after = 50.0;
    replicas = 128 }

type mode = {
  ft : bool;  (** arm Section 5; [false] also drops the fault schedule *)
  metrics : bool;
}

let workload_mode = { ft = true; metrics = true }

(* Exact outcome of one replica. *)
type outcome = {
  entries : int;
  issued : int;
  abandoned : int;
  outstanding : int;
  messages : int;
  fault_messages : int;
  dropped : int;
  violations : int;
  quiescent : bool;
  waits : float list;
  spans : Span.span list;
  stats : Opencube_algo.stats;
}

let same_exact a b =
  a.entries = b.entries && a.issued = b.issued && a.abandoned = b.abandoned
  && a.messages = b.messages && a.dropped = b.dropped
  && List.equal Float.equal a.waits b.waits

module Replica (R : Runtime.S with type t = Types.Net.t) = struct
  module A = Opencube_algo.Make (R)

  (* Environment, algorithm and input schedule of replica [seed]: the
     set-up the benchmark times as [setup_s]. *)
  let build ?(wrap = Fun.id) ~mode prm ~seed () =
    let n = 1 lsl prm.p in
    let env =
      Runner.make_env ~seed ~n ~delay:(Ocube_net.Network.Constant 1.0)
        ~cs:(Runner.Fixed 1.0) ~metrics:mode.metrics ()
    in
    let config =
      { (Opencube_algo.default_config ~p:prm.p) with fault_tolerance = mode.ft }
    in
    let a = A.create ~net:(Runner.net env) ~callbacks:(Runner.callbacks env) ~config in
    Runner.attach env (wrap (A.instance a));
    Runner.run_source env
      (Source.poisson ~rng:(Runner.rng env) ~n ~rate:prm.rate ~horizon:prm.horizon);
    if mode.ft && prm.faults > 0 then begin
      let spacing = prm.horizon /. float_of_int (prm.faults + 1) in
      Runner.schedule_faults env
        (Faults.random
           ~rng:(Rng.create (Common.sub_seed ~seed 1))
           ~n ~count:prm.faults ~start:spacing ~spacing
           ~recover_after:(Some prm.recover_after) ())
    end;
    (env, a)

  let run env a =
    Runner.run_to_quiescence env;
    let net = Runner.net env in
    {
      entries = Runner.cs_entries env;
      issued = Runner.issued env;
      abandoned = Runner.abandoned env;
      outstanding = Runner.outstanding env;
      messages = Runner.messages_sent env;
      fault_messages = Runner.fault_overhead_messages env;
      dropped = Types.Net.dropped_total net;
      violations = Runner.violations env;
      quiescent = Engine.quiescent (Runner.engine env);
      waits = Runner.wait_samples env;
      spans =
        (match Runner.spans env with Some s -> Span.closed s | None -> []);
      stats = A.stats a;
    }
end

module Plain = Replica (Runtime.Sim)
module Traced = Replica (Timed)

let replica_seeds ~seed prm = List.init prm.replicas (Common.sub_seed ~seed)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let ok o = o.violations = 0 && o.quiescent && o.outstanding = 0

(* One untimed-setup, timed-run pass over the ensemble: per replica, the
   outcome and the timing sample of its run alone. *)
let pass ?(gc = Layers.gc_zero ()) ~mode prm seeds =
  List.map
    (fun s ->
      let env, a = Plain.build ~mode prm ~seed:s () in
      Common.timed_part (fun () -> Layers.gc_count gc (fun () -> Plain.run env a)))
    seeds

(* One set-up round: every replica's environment, algorithm and input
   schedule, each built on a settled heap and timed on its own; the
   host-corrected total. *)
let setup_time prm seeds =
  List.fold_left
    (fun acc s ->
      let _, sample =
        Common.timed_part (fun () ->
            Sys.opaque_identity (Plain.build ~mode:workload_mode prm ~seed:s ()))
      in
      acc +. Common.corrected sample)
    0.0 seeds

let setup_rounds = 5

let waits_sorted outs = Stat.sorted_copy (List.concat_map (fun o -> o.waits) outs)

let run ~seed ~seconds =
  let prm = default in
  let seeds = replica_seeds ~seed prm in
  let setups = List.init setup_rounds (fun _ -> setup_time prm seeds) in
  (* later passes are only compared with the first, not kept *)
  let first = ref [] in
  let passes =
    Common.repeat ~seconds ~min_reps:2 (fun i ->
        let p = pass ~mode:workload_mode prm seeds in
        if i = 0 then first := List.map fst p;
        (List.for_all2 (fun a (b, _) -> same_exact a b) !first p, List.map snd p))
    |> List.map fst
  in
  let outs = !first in
  let consistent = List.for_all fst passes in
  let parts = List.map (fun (_, times) -> Array.of_list times) passes in
  Common.print_corrected "des_ft_open_n1024 (parts: replicas)" parts;
  Printf.printf "des_ft_open_n1024 setup rounds, host-corrected: %s s (median used)\n%!"
    (String.concat " " (List.map (Printf.sprintf "%.6f") setups));
  let entries = sum (fun o -> o.entries) outs in
  let w = waits_sorted outs in
  let correct = consistent && List.for_all ok outs && Array.length w >= 1000 in
  {
    Common.correct;
    attempted = sum (fun o -> o.issued) outs;
    failed = sum (fun o -> o.abandoned + o.outstanding) outs;
    metrics =
      Common.
        [
          m "setup_s" "s" (Stat.median setups);
          m "ops_per_s" "1/s" (float_of_int entries /. Common.corrected_sum parts);
          m "msgs_per_op" "msgs/op" (per (float_of_int (sum (fun o -> o.messages) outs)) entries);
          m "wait_p50_vt" "vt" (Stat.percentile_sorted w 0.50);
          m "wait_p90_vt" "vt" (Stat.percentile_sorted w 0.90);
          m "peak_rss_mb" "MB" (peak_rss_mb ());
        ];
  }

let traced_pass prm seeds steps =
  Timed.reset ();
  List.map
    (fun s ->
      let env, a = Traced.build ~wrap:Timed.wrap_instance ~mode:workload_mode prm ~seed:s () in
      Layers.count_steps steps (Runner.engine env);
      Common.timed_part (fun () -> Traced.run env a))
    seeds

(* Raw and host-corrected totals of a pass: the layer times add up to the
   raw one; the overhead percentages compare corrected ones. *)
let totals p =
  let samples = Array.of_list (List.map snd p) in
  (Common.raw_total samples, Common.corrected_total samples)

let trace ~seed =
  let prm = default in
  let seeds = replica_seeds ~seed prm in
  let gc = Layers.gc_zero () in
  let untraced = pass ~gc ~mode:workload_mode prm seeds in
  let t_untraced, c_untraced = totals untraced in
  let outs = List.map fst untraced in
  let _, c_off = totals (pass ~mode:{ workload_mode with metrics = false } prm seeds) in
  let steps = Layers.steps_zero () in
  let traced = traced_pass prm seeds steps in
  let touts = List.map fst traced in
  let t_traced, c_traced = totals traced in
  let nofault = List.map fst (pass ~mode:{ ft = false; metrics = false } prm seeds) in
  let c = Timed.c in
  let entries = sum (fun o -> o.entries) outs in
  let st f = sum (fun o -> f o.stats) outs in
  let searches = st (fun s -> s.Opencube_algo.searches_started) in
  let dispatch = t_traced -. Timed.timed_total () in
  Printf.printf
    "des_ft_open_n1024 layers (traced run, s): handler %.3f  timer_cb %.3f  send %.3f  \
     timer_arm %.3f  wire %.3f  dispatch %.3f  = %.3f; untraced %.3f; leftover %.3f; \
     host-corrected overhead %.1f%%\n%!"
    c.handler_s c.timer_cb_s c.send_s c.arm_s (c.encode_s +. c.decode_s) dispatch
    t_traced t_untraced (t_traced -. t_untraced)
    (Common.pct_over c_traced c_untraced);
  let exact_match = List.for_all2 same_exact outs touts in
  let open Common in
  let values =
    [
      ("sim.dispatch_ns", ns_per dispatch steps.events);
      ("sim.timer_arms_per_op", per (float_of_int c.arms) entries);
      ("sim.timer_cancels_per_op", per (float_of_int c.cancels) entries);
      ("sim.timer_arm_ns", ns_per c.arm_s c.arms);
      ("net.send_ns", ns_per c.send_s c.sends);
      ("net.drops_per_op", per (float_of_int (sum (fun o -> o.dropped) outs)) entries);
      ("mutex.handler_ns", ns_per c.handler_s c.handler_calls);
      ("mutex.timer_cb_ns", ns_per c.timer_cb_s c.timer_cb_calls);
      ( "mutex.fault_msg_share",
        per (float_of_int (sum (fun o -> o.fault_messages) outs))
          (sum (fun o -> o.messages) outs) );
      ("mutex.searches_per_op", per (float_of_int searches) entries);
      ( "mutex.probes_per_search",
        per (float_of_int (st (fun s -> s.Opencube_algo.search_nodes_tested))) searches );
      ("mutex.enquiries_per_op", per (float_of_int (st (fun s -> s.Opencube_algo.enquiries_sent))) entries);
      ("mutex.regenerations", float_of_int (st (fun s -> s.Opencube_algo.token_regenerations)));
      ("mutex.entries_per_search", per (float_of_int entries) searches);
      ("mutex.queueing_share", Stat.queueing_share (List.concat_map (fun o -> o.spans) outs));
      ( "mutex.nofault_msgs_per_op",
        per (float_of_int (sum (fun o -> o.messages) nofault)) (sum (fun o -> o.entries) nofault) );
      ( "mutex.service_gap_vt",
        List.fold_left (fun a o -> Float.max a (Stat.service_gap o.spans)) 0.0 outs );
      ("obs.tap_overhead_pct", pct_over c_untraced c_off);
      ("wire.encode_ns", ns_per c.encode_s c.sends);
      ("wire.decode_ns", ns_per c.decode_s c.sends);
      ("wire.bytes_per_msg", per (float_of_int c.wire_bytes) c.sends);
      ("gc.minor_words_per_op", per gc.Layers.minor_words entries);
      ("gc.major_collections", float_of_int gc.Layers.majors);
      ("trace.overhead_pct", pct_over c_traced c_untraced);
      ("mutex.wait_p99_vt", Stat.percentile_sorted (waits_sorted outs) 0.99);
    ]
    @ Layers.step_values steps ~entries
  in
  {
    correct = exact_match && List.for_all ok outs && List.for_all ok nofault;
    attempted = sum (fun o -> o.issued) outs;
    failed = sum (fun o -> o.abandoned + o.outstanding) outs;
    metrics = Layers.report ~absent:[ "check."; "proc." ] values;
  }
