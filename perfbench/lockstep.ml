(* proc_lockstep_n2: the open cube (p = 1, fault tolerance off) as two
   forked processes behind the parent switch, wishing one at a time in
   node order. The tick and CS are small so the CS sleep does not set the
   rate: what is measured is fork, the Wire/Frame codecs, socketpair
   syscalls and the switch hop. No simulator is involved. The workload is
   deterministic, so the seed changes nothing but is accepted. *)

module Cluster = Ocube_proc.Cluster
module Pspec = Ocube_proc.Spec
module Span = Ocube_obs.Span

let acquires = 10_000

let config ~metrics =
  {
    Cluster.algo = Pspec.Opencube;
    params = Pspec.default_params ~p:1;
    tick = 0.0005;
    delta = 1.0;
    cs = 0.02;
    workload = Cluster.Lockstep { rounds = acquires / 2 };
    kills = [];
    deadline = 60.0;
    metrics;
  }

let tick = (config ~metrics:false).Cluster.tick

(* Acquires per timed block of the merged log. *)
let block = 500

(* What one cluster run's merged log says. Log times are wall seconds
   since the parent started forking; the log itself is not kept. *)
type rep = {
  clean : bool;  (** [Cluster.oracle_clean] *)
  wishes : int;
  served : int;
  entries : int;
  digests : string array;
  first_wish : float;  (** fork until the first wish: set-up *)
  blocks : float array;
      (** the phase cut at every [block]-th wish: one duration per block *)
  sends : int;
  latencies : float array;  (** wish to entry, sorted, seconds *)
  hops : float list;  (** gaps between consecutive log events of one acquire *)
  turnarounds : float list;  (** exit to the next wish *)
  spans : Span.span list;
}

let analyse (o : Cluster.outcome) =
  let first_wish = ref nan and last_exit = ref 0.0 and sends = ref 0 in
  let lat = ref [] and hops = ref [] and turns = ref [] and spans = ref [] in
  let opened = Array.make o.Cluster.n nan and entered = Array.make o.Cluster.n nan in
  let prev = ref nan and exited = ref nan in
  let nwish = ref 0 and cuts = ref [] in
  List.iter
    (fun (t, ev) ->
      match ev with
      | Cluster.Ev_wish i ->
        if Float.is_nan !first_wish then first_wish := t;
        if !nwish mod block = 0 then cuts := t :: !cuts;
        incr nwish;
        if not (Float.is_nan !exited) then turns := (t -. !exited) :: !turns;
        opened.(i) <- t;
        prev := t
      | Cluster.Ev_send _ ->
        incr sends;
        if not (Float.is_nan !prev) then hops := (t -. !prev) :: !hops;
        prev := t
      | Cluster.Ev_enter i ->
        lat := (t -. opened.(i)) :: !lat;
        if not (Float.is_nan !prev) then hops := (t -. !prev) :: !hops;
        prev := nan;
        entered.(i) <- t
      | Cluster.Ev_exit i ->
        last_exit := t;
        exited := t;
        spans :=
          {
            Span.node = i;
            index = List.length !spans;
            open_time = opened.(i) /. tick;
            enter_time = Some (entered.(i) /. tick);
            close_time = t /. tick;
            hops = 0;
            queueing = 0.0;
            transit = (entered.(i) -. opened.(i)) /. tick;
            service = (t -. entered.(i)) /. tick;
            faults = 0;
            completed = true;
          }
          :: !spans
      | Cluster.Ev_drop _ | Cluster.Ev_kill _ | Cluster.Ev_dead _
      | Cluster.Ev_violation _ ->
        ())
    o.Cluster.events;
  let cuts = Array.of_list (List.rev (!last_exit :: !cuts)) in
  {
    clean = Cluster.oracle_clean o = Ok ();
    wishes = o.Cluster.wishes;
    served = o.Cluster.served;
    entries = o.Cluster.entries;
    digests = o.Cluster.digests;
    first_wish = !first_wish;
    blocks = Array.init (Array.length cuts - 1) (fun k -> cuts.(k + 1) -. cuts.(k));
    sends = !sends;
    latencies = Stat.sorted_copy !lat;
    hops = !hops;
    turnarounds = !turns;
    spans = List.rev !spans;
  }

let run_once ~metrics () = analyse (Cluster.run (config ~metrics))

let ok r =
  r.clean && r.entries = acquires && r.served = r.wishes
  && Array.length r.latencies = acquires
  && Array.length r.blocks = acquires / block

let consistent reps =
  match reps with
  | [] -> false
  | r0 :: _ ->
    List.for_all
      (fun r ->
        r.sends = r0.sends && Array.for_all2 String.equal r.digests r0.digests)
      reps

let accounting reps =
  let r = List.hd reps in
  (r.wishes, r.wishes - r.served)

let run ~seed:_ ~seconds =
  (* only the end-to-end figures of each repetition are kept *)
  let reps =
    Common.repeat ~seconds ~min_reps:3 (fun _ ->
        { (run_once ~metrics:false ()) with hops = []; turnarounds = []; spans = [] })
    |> List.map fst
  in
  let parts = List.map (fun r -> r.blocks) reps in
  (* the cluster cannot be paused between blocks to sample the host, so
     its time is the raw per-block fastest, not host-corrected *)
  Common.print_reps "proc_lockstep_n2 (parts: 500-acquire blocks)" parts;
  Printf.printf "proc_lockstep_n2 setup (fork to first wish): %s s (median used)\n%!"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.6f" r.first_wish) reps));
  let lq_pct q = Stat.lower_quartile (List.map (fun r -> Stat.percentile_sorted r.latencies q /. tick) reps) in
  let r0 = List.hd reps in
  let attempted, failed = accounting reps in
  {
    Common.correct = List.for_all ok reps && consistent reps;
    attempted;
    failed;
    metrics =
      Common.
        [
          m "setup_s" "s" (Stat.median (List.map (fun r -> r.first_wish) reps));
          m "ops_per_s" "1/s" (float_of_int acquires /. Common.fastest_sum parts);
          m "msgs_per_op" "msgs/op" (per (float_of_int r0.sends) acquires);
          m "wait_p50_vt" "vt" (lq_pct 0.50);
          m "wait_p90_vt" "vt" (lq_pct 0.90);
          m "peak_rss_mb" "MB" (peak_rss_mb ());
        ];
  }

(* The same automaton on the same serial traffic in the simulator: the
   protocol handlers and the wire codec are the code the node processes
   run, so their cost per call is measured here, in process. *)
module Replay (R : Ocube_mutex.Runtime.S with type t = Ocube_mutex.Types.Net.t) = struct
  module B = Pspec.Build (R)
  open Ocube_mutex

  let run ~wrap () =
    let env =
      Runner.make_env ~seed:0 ~n:2 ~delay:(Ocube_net.Network.Constant 1.0)
        ~cs:(Runner.Fixed 0.02) ()
    in
    let inst =
      B.build Pspec.Opencube ~params:(Pspec.default_params ~p:1) ~net:(Runner.net env)
        ~callbacks:(Runner.callbacks env)
    in
    Runner.attach env (wrap inst);
    for k = 0 to acquires - 1 do
      Runner.submit env (k mod 2);
      Runner.run_to_quiescence env
    done;
    (Runner.cs_entries env, Runner.messages_sent env)
end

module Replay_plain = Replay (Ocube_mutex.Runtime.Sim)
module Replay_timed = Replay (Timed)

let trace ~seed:_ =
  let reps = List.init 3 (fun _ -> fst (Common.timed (run_once ~metrics:false))) in
  let tapped = List.init 3 (fun _ -> fst (Common.timed (run_once ~metrics:true))) in
  let lq f rs = Stat.lower_quartile (List.map f rs) in
  let gc = Layers.gc_zero () in
  ignore (Layers.gc_count gc (fun () -> Common.timed (run_once ~metrics:false)));
  let (plain_e, plain_m), t_plain = Common.timed (fun () -> Replay_plain.run ~wrap:Fun.id ()) in
  Timed.reset ();
  let (timed_e, timed_m), t_timed = Common.timed (fun () -> Replay_timed.run ~wrap:Timed.wrap_instance ()) in
  let c = Timed.c in
  let r0 = List.hd reps in
  let open Common in
  (* Send up + Deliver down per message, Wish down, Enter and Exit up *)
  let frames r = (2 * r.sends) + r.wishes + (2 * r.entries) in
  let values =
    [
      ("mutex.handler_ns", ns_per c.handler_s c.handler_calls);
      ("mutex.timer_cb_ns", ns_per c.timer_cb_s c.timer_cb_calls);
      ("mutex.nofault_msgs_per_op", per (float_of_int r0.sends) acquires);
      ("mutex.service_gap_vt", lq (fun r -> Stat.service_gap r.spans) reps);
      ( "obs.tap_overhead_pct",
        pct_over (fastest_sum (List.map (fun r -> r.blocks) tapped)) (fastest_sum (List.map (fun r -> r.blocks) reps)) );
      ("wire.encode_ns", ns_per c.encode_s c.sends);
      ("wire.decode_ns", ns_per c.decode_s c.sends);
      ("wire.bytes_per_msg", per (float_of_int c.wire_bytes) c.sends);
      ("proc.hop_us_p50", 1e6 *. lq (fun r -> Stat.median r.hops) reps);
      ("proc.turnaround_us_p50", 1e6 *. lq (fun r -> Stat.median r.turnarounds) reps);
      ("proc.frames_per_op", per (float_of_int (frames r0)) acquires);
      ("gc.minor_words_per_op", per gc.Layers.minor_words acquires);
      ("gc.major_collections", float_of_int gc.Layers.majors);
      ("trace.overhead_pct", pct_over t_timed t_plain);
      ("mutex.wait_p99_vt", lq (fun r -> Stat.percentile_sorted r.latencies 0.99 /. tick) reps);
    ]
  in
  let attempted, failed = accounting reps in
  {
    correct =
      List.for_all ok reps && List.for_all ok tapped && consistent (reps @ tapped)
      && plain_e = acquires && timed_e = plain_e && timed_m = plain_m && plain_m = r0.sends;
    attempted;
    failed;
    metrics =
      Layers.report
        ~absent:
          [ "sim."; "net."; "check."; "mutex.fault"; "mutex.searches"; "mutex.probes";
            "mutex.enquiries"; "mutex.regenerations"; "mutex.entries_per"; "mutex.queueing" ]
        values;
  }
