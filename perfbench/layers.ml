(* The per-layer metrics of a traced run. Every workload reports all of
   them; a layer its operations never pass through reads 0, and the
   workload names those layers explicitly. *)

let all =
  [
    ("sim.events_per_op", "events/op");
    ("sim.pending_max", "events");
    ("sim.pending_mean", "events");
    ("sim.dispatch_ns", "ns/event");
    ("sim.timer_arms_per_op", "arms/op");
    ("sim.timer_cancels_per_op", "cancels/op");
    ("sim.timer_arm_ns", "ns/arm");
    ("net.send_ns", "ns/msg");
    ("net.drops_per_op", "msgs/op");
    ("mutex.handler_ns", "ns/call");
    ("mutex.timer_cb_ns", "ns/call");
    ("mutex.fault_msg_share", "ratio");
    ("mutex.searches_per_op", "searches/op");
    ("mutex.probes_per_search", "probes/search");
    ("mutex.enquiries_per_op", "enquiries/op");
    ("mutex.regenerations", "count");
    ("mutex.entries_per_search", "ops/search");
    ("mutex.queueing_share", "ratio");
    ("mutex.nofault_msgs_per_op", "msgs/op");
    ("mutex.service_gap_vt", "vt");
    ("mutex.wait_p99_vt", "vt");
    ("check.gen_us", "us/scenario");
    ("check.build_us", "us/scenario");
    ("check.run_us", "us/scenario");
    ("check.run_us.opencube", "us/scenario");
    ("check.run_us.raymond", "us/scenario");
    ("check.run_us.naimi-trehel", "us/scenario");
    ("check.run_us.central", "us/scenario");
    ("check.run_us.suzuki-kasami", "us/scenario");
    ("check.run_us.ricart-agrawala", "us/scenario");
    ("obs.tap_overhead_pct", "%");
    ("wire.encode_ns", "ns/msg");
    ("wire.decode_ns", "ns/msg");
    ("wire.bytes_per_msg", "bytes/msg");
    ("proc.hop_us_p50", "us");
    ("proc.turnaround_us_p50", "us");
    ("proc.frames_per_op", "frames/op");
    ("gc.minor_words_per_op", "words/op");
    ("gc.major_collections", "count");
    ("trace.overhead_pct", "%");
  ]

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let report ~absent values =
  List.map
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some v -> Common.m name unit_ v
      | None when List.exists (fun p -> has_prefix p name) absent ->
        Common.m name unit_ 0.0
      | None -> failwith ("traced run did not measure " ^ name))
    all

(* GC work of one region, from [Gc.quick_stat] deltas. *)
type gc = { mutable minor_words : float; mutable majors : int }

let gc_zero () = { minor_words = 0.0; majors = 0 }

let gc_count g f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  g.minor_words <- g.minor_words +. (b.Gc.minor_words -. a.Gc.minor_words);
  g.majors <- g.majors + (b.Gc.major_collections - a.Gc.major_collections);
  r

(* Engine step-hook counters: events fired and the pending-queue depth
   seen after each. *)
type steps = { mutable events : int; mutable pend_sum : float; mutable pend_max : int }

let steps_zero () = { events = 0; pend_sum = 0.0; pend_max = 0 }

let count_steps st e =
  ignore
    (Ocube_sim.Engine.add_step_hook e (fun () ->
         let p = Ocube_sim.Engine.pending e in
         st.events <- st.events + 1;
         st.pend_sum <- st.pend_sum +. float_of_int p;
         if p > st.pend_max then st.pend_max <- p))

let step_values st ~entries =
  [
    ("sim.events_per_op", Common.per (float_of_int st.events) entries);
    ("sim.pending_max", float_of_int st.pend_max);
    ("sim.pending_mean", Common.per st.pend_sum st.events);
  ]
