(* The process runtime: DES↔process differential conformance (same
   automata, byte-identical per-node send sequences on serial crash-free
   workloads), cluster crash-recovery under real SIGKILL, and the merged
   -log oracle. Everything here forks real processes; node counts stay
   small (4–8) so the whole suite is a few seconds. *)

module Spec = Ocube_proc.Spec
module Cluster = Ocube_proc.Cluster
module Ctrl = Ocube_proc.Ctrl
module Frame = Ocube_proc.Frame
module Node_main = Ocube_proc.Node_main
module Proc_runtime = Ocube_proc.Proc_runtime
module Conformance = Ocube_proc.Conformance
module Metrics = Ocube_obs.Metrics
module Span = Ocube_obs.Span
module Runner = Ocube_mutex.Runner
module Scenario = Ocube_check.Scenario
module Fuzz = Ocube_check.Fuzz

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let ok_or_fail what = function
  | Ok () -> ()
  | Error e -> Alcotest.fail (what ^ ": " ^ e)

(* --- DES <-> process conformance ----------------------------------------- *)

let conformance_cases =
  List.map
    (fun algo -> { Conformance.algo; p = 2; cs = 1.0; rounds = 2 })
    Spec.all
  @ [ { Conformance.algo = Spec.Opencube; p = 3; cs = 1.0; rounds = 1 } ]

let test_conformance () =
  List.iter
    (fun c ->
      ok_or_fail (Conformance.case_name c) (Conformance.check c))
    conformance_cases

let test_des_digests_stable () =
  (* the DES side of the differential is itself deterministic *)
  let c = { Conformance.algo = Spec.Opencube; p = 2; cs = 1.0; rounds = 2 } in
  let a = Conformance.des_digests c in
  let b = Conformance.des_digests c in
  Array.iteri
    (fun i d -> Alcotest.(check string) (Printf.sprintf "node %d" i) d b.(i))
    a

let test_proc_digests_stable () =
  (* crash-free lockstep cluster runs replay bit-identically too *)
  let c = { Conformance.algo = Spec.Central; p = 2; cs = 1.0; rounds = 2 } in
  let a = Conformance.proc_digests c in
  let b = Conformance.proc_digests c in
  Array.iteri
    (fun i d -> Alcotest.(check string) (Printf.sprintf "node %d" i) d b.(i))
    a

(* Both runtimes drive the same telemetry recorder, so a crash-free
   lockstep case must report the same request spans and the same
   per-node counters in the DES and in the cluster — and every cluster
   request must stay within the paper's log2 N + 1 messages. *)
let test_span_parity () =
  List.iter
    (fun algo ->
      let c = { Conformance.algo; p = 3; cs = 1.0; rounds = 2 } in
      let name = Conformance.case_name c in
      let env = Conformance.des_run c in
      let o = Conformance.proc_run c in
      let hops spans = List.map (fun s -> (s.Span.node, s.Span.hops)) spans in
      let des_hops = hops (Span.closed (Option.get (Runner.spans env))) in
      let proc_hops = hops o.Cluster.spans in
      checki (name ^ ": one span per wish") 16 (List.length proc_hops);
      Alcotest.(check (list (pair int int)))
        (name ^ ": per-request hops") des_hops proc_hops;
      List.iter
        (fun (node, h) ->
          if h > c.p + 1 then
            Alcotest.failf "%s: a request of node %d cost %d messages (bound %d)"
              name node h (c.p + 1))
        proc_hops;
      let des = Option.get (Runner.metrics_snapshot env) in
      let proc = Option.get o.Cluster.snapshot in
      let names s = List.map (fun r -> r.Metrics.name) s.Metrics.rows in
      Alcotest.(check (list string)) (name ^ ": metric names") (names des)
        (names proc);
      List.iter
        (fun metric ->
          let per_node s =
            match Metrics.find_row s metric with
            | Some { Metrics.data = Metrics.S_counter a; _ } -> a
            | _ -> Alcotest.failf "%s: counter %s missing" name metric
          in
          Alcotest.(check (array int))
            (name ^ ": " ^ metric) (per_node des) (per_node proc))
        [ "wishes_total"; "cs_entries_total"; "messages_sent_total" ])
    [ Spec.Opencube; Spec.Raymond ]

(* --- plain cluster runs --------------------------------------------------- *)

let test_closed_loop_drains () =
  let o =
    Cluster.run
      {
        (Cluster.default_config ~algo:Spec.Opencube ~p:2) with
        workload = Cluster.Closed_loop { per_node = 2 };
      }
  in
  ok_or_fail "closed loop" (Cluster.oracle_clean o);
  checki "wishes" 8 o.Cluster.wishes;
  checki "served all" 8 o.Cluster.served;
  checki "entries = served" o.Cluster.served o.Cluster.entries;
  checki "nothing abandoned" 0 o.Cluster.abandoned;
  checkb "metrics snapshot present" true (Option.is_some o.Cluster.snapshot);
  match o.Cluster.snapshot with
  | None -> ()
  | Some s ->
    checki "metrics entries" o.Cluster.entries
      (Metrics.total_of s "cs_entries_total");
    checki "metrics wishes" o.Cluster.wishes
      (Metrics.total_of s "wishes_total")

let test_merged_log_shape () =
  let o =
    Cluster.run
      {
        (Cluster.default_config ~algo:Spec.Central ~p:2) with
        workload = Cluster.Lockstep { rounds = 1 };
      }
  in
  ok_or_fail "lockstep" (Cluster.oracle_clean o);
  (* merged log: every enter is preceded by its wish and followed by its
     exit, and CS intervals never interleave in receipt order *)
  let open_cs = ref None in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Cluster.Ev_enter i ->
        (match !open_cs with
        | None -> open_cs := Some i
        | Some j ->
          Alcotest.failf "enter %d while %d still in CS in merged log" i j)
      | Cluster.Ev_exit i -> (
        match !open_cs with
        | Some j when j = i -> open_cs := None
        | _ -> Alcotest.fail "exit without matching enter")
      | _ -> ())
    o.Cluster.events;
  checkb "log closes" true (Option.is_none !open_cs)

(* --- crash recovery under real SIGKILL ------------------------------------ *)

let ft_config ~p ~kills ~per_node =
  {
    (Cluster.default_config ~algo:Spec.Opencube ~p) with
    params = { (Spec.default_params ~p) with ft = true };
    workload = Cluster.Closed_loop { per_node };
    kills;
    (* fast clock: recovery timeouts are a few delta, i.e. well under a
       second of wall time at this tick *)
    tick = 0.02;
    cs = 2.0;
    deadline = 25.0;
  }

(* N=8, kill the token holder mid-CS on its first entry; the survivors
   must re-elect a father, regenerate the token and drain every
   remaining wish before the deadline. *)
let test_kill_leader_mid_cs () =
  let o = Cluster.run (ft_config ~p:3 ~kills:[ Cluster.Kill_leader 1 ] ~per_node:1) in
  ok_or_fail "kill leader" (Cluster.oracle_clean o);
  checki "exactly one kill" 1 (List.length o.Cluster.killed);
  checkb "the killed node had entered" true
    (List.exists
       (fun (_, ev) ->
         match ev with
         | Cluster.Ev_enter i -> List.mem i o.Cluster.killed
         | _ -> false)
       o.Cluster.events);
  (* its wish died with it; everyone else's was served *)
  checki "abandoned" 1 o.Cluster.abandoned;
  checki "served" (o.Cluster.wishes - 1) o.Cluster.served;
  (* the recorder saw the same: one fault, the victim's span closed
     uncompleted, and both exports are valid JSON *)
  let snap = Option.get o.Cluster.snapshot in
  checki "faults_total" 1 (Metrics.total_of snap "faults_total");
  checki "one uncompleted span" 1
    (List.length (List.filter (fun s -> not s.Span.completed) o.Cluster.spans));
  List.iter
    (fun (what, json) ->
      match Ocube_obs.Json.check json with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s export invalid: %s" what e)
    [
      ("metrics", Ocube_obs.Export.json snap);
      ("chrome", Ocube_obs.Export.chrome_trace ~spans:o.Cluster.spans ());
    ]

let test_kill_cascade () =
  let o =
    Cluster.run
      (ft_config ~p:3
         ~kills:
           [
             Cluster.Kill_at { after = 0.3; node = 1 };
             Cluster.Kill_at { after = 0.8; node = 5 };
           ]
         ~per_node:2)
  in
  ok_or_fail "cascade" (Cluster.oracle_clean o);
  checki "two kills" 2 (List.length o.Cluster.killed);
  checkb "survivors drained" true o.Cluster.drained

(* --- fuzzing the process runtime ------------------------------------------ *)

let proc_opts =
  { Scenario.default_opts with Scenario.runtime = Scenario.Proc; max_p = 2 }

(* Short soak: generated scenarios — crashy ones included — forked as real
   clusters under the oracle. The CLI equivalent is
   [ocmutex fuzz --runtime proc]. *)
let test_proc_fuzz_soak () =
  let report = Fuzz.campaign ~opts:proc_opts ~iters:6 ~fuzz_seed:5 () in
  checki "all scenarios ran" 6 report.Fuzz.ran;
  match report.Fuzz.failure with
  | None -> ()
  | Some f ->
    Alcotest.failf "scenario %d violated %S: %s" f.Fuzz.index f.Fuzz.error
      (Scenario.to_string f.Fuzz.scenario)

let test_proc_scripts_replayable () =
  (* proc scenarios round-trip through the one-line script format ... *)
  let s = Scenario.of_index ~fuzz_seed:13 ~index:0 ~opts:proc_opts in
  checkb "generated as proc" true (s.Scenario.runtime = Scenario.Proc);
  (match Scenario.of_string (Scenario.to_string s) with
  | Error e -> Alcotest.failf "proc script unparseable: %s" e
  | Ok s' ->
    Alcotest.(check string)
      "round trip" (Scenario.to_string s) (Scenario.to_string s'));
  (* ... every shrink candidate stays a valid proc scenario ... *)
  List.iter
    (fun (c : Scenario.t) ->
      checkb "shrink keeps runtime" true (c.Scenario.runtime = Scenario.Proc);
      match Scenario.validate c with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid shrink candidate: %s" e)
    (Scenario.shrink_candidates s);
  (* ... and corpus lines from before the runtime field default to des *)
  match
    Scenario.of_string
      "algo=central p=2 seed=0 delay=constant:1 cs=fixed:1 ft=false \
       patience=1 lifo=false serial=true arrivals=- faults=-"
  with
  | Error e -> Alcotest.failf "legacy script unparseable: %s" e
  | Ok s -> checkb "legacy defaults to des" true (s.Scenario.runtime = Scenario.Des)

(* [cluster -n] is checked before anything forks, so this test starts
   no node process. *)
let test_cluster_sizes () =
  let rejected n expect =
    match Cluster.dimension n with
    | Error m ->
      Alcotest.(check string) (Printf.sprintf "-n %d" n) expect m
    | Ok p -> Alcotest.failf "-n %d accepted (p = %d)" n p
  in
  rejected 3 "-n must be a power of two >= 2 (got 3)";
  rejected 1 "-n must be a power of two >= 2 (got 1)";
  rejected 1024 "-n must be at most 512 (got 1024)";
  rejected (1 lsl 30) "-n must be at most 512 (got 1073741824)";
  Alcotest.(check (result int string)) "-n 2" (Ok 1) (Cluster.dimension 2);
  Alcotest.(check (result int string))
    "-n 512" (Ok 9)
    (Cluster.dimension Cluster.max_nodes)

(* --- one node process ---------------------------------------------------- *)

(* Every node starts in [Proc_runtime.create], which must leave the
   process with a timer slack of 1 ns, not the inherited 50 us default
   under which every select timeout of the node's loop fires late. The
   call runs in a forked child, which reads its own
   /proc/self/timerslack_ns (another process's needs CAP_SYS_NICE) and
   sends it back over a pipe. *)
let test_node_timer_slack () =
  let file = "/proc/self/timerslack_ns" in
  if not (Sys.file_exists file) then Alcotest.skip ()
  else
    let r, w = Unix.pipe () in
    match Unix.fork () with
    | 0 -> (
      Unix.close r;
      try
        let sock, _ = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        ignore (Proc_runtime.create ~me:0 ~n:2 ~tick:0.001 ~delta:1.0 ~sock);
        let slack = In_channel.with_open_text file In_channel.input_all in
        ignore (Unix.write_substring w slack 0 (String.length slack));
        Unix._exit 0
      with _ -> Unix._exit 2)
    | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let slack =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
      in
      let _, status = Unix.waitpid [] pid in
      checkb "child exits 0" true
        (match status with Unix.WEXITED 0 -> true | _ -> false);
      Alcotest.(check string) "timerslack_ns" "1" (String.trim slack)

(* The node reads through the same decoder as the parent: a stream that
   ends inside a frame is a Violation, then exit 2, not a clean quit. The
   node is node 0 of a 2-node open cube, running the real
   [Node_main.run] on one end of a socketpair. *)
let test_node_torn_frame () =
  let witness = Filename.temp_file "test_proc_witness" ".lock" in
  let fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    Unix.close fd;
    (try
       Node_main.run ~me:0 ~n:2 ~algo:Spec.Opencube
         ~params:(Spec.default_params ~p:1) ~tick:0.001 ~delta:1.0 ~cs:1.0
         ~witness ~sock:child_fd
     with _ -> ());
    Unix._exit 3
  | pid ->
    Unix.close child_fd;
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd;
        Sys.remove witness)
      (fun () ->
        (* a header that promises 8 bytes more than follow it *)
        let raw = Ctrl.encode_to_child Ctrl.Wish in
        let b = Bytes.create 4 in
        Bytes.set_int32_be b 0 (Int32.of_int (String.length raw + 8));
        ignore (Unix.write fd b 0 4);
        ignore (Unix.write_substring fd raw 0 (String.length raw));
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let dec = Frame.Decoder.create () in
        let rec frames acc =
          match Frame.Decoder.next dec with
          | Some raw -> frames (Ctrl.decode_to_parent raw :: acc)
          | None -> if Frame.Decoder.read dec fd = 0 then acc else frames acc
        in
        let got = frames [] in
        let _, status = Unix.waitpid [] pid in
        checkb "violation reported" true
          (List.exists
             (function
               | Ctrl.Violation v -> Tutil.contains v "eof inside frame"
               | _ -> false)
             got);
        checkb "exit 2" true (status = Unix.WEXITED 2))

let suite =
  [
    Alcotest.test_case "DES and process send digests agree" `Quick
      test_conformance;
    Alcotest.test_case "DES digests stable" `Quick test_des_digests_stable;
    Alcotest.test_case "process digests stable" `Quick
      test_proc_digests_stable;
    Alcotest.test_case "DES and cluster spans and counters agree" `Quick
      test_span_parity;
    Alcotest.test_case "closed-loop cluster drains clean" `Quick
      test_closed_loop_drains;
    Alcotest.test_case "merged log is well-formed" `Quick
      test_merged_log_shape;
    Alcotest.test_case "kill -9 token holder mid-CS recovers" `Quick
      test_kill_leader_mid_cs;
    Alcotest.test_case "cascading kills recover" `Quick test_kill_cascade;
    Alcotest.test_case "fuzz soak on the process runtime" `Quick
      test_proc_fuzz_soak;
    Alcotest.test_case "proc scripts shrink and replay" `Quick
      test_proc_scripts_replayable;
    Alcotest.test_case "cluster sizes checked before forking" `Quick
      test_cluster_sizes;
    Alcotest.test_case "node timer slack is 1 ns" `Quick
      test_node_timer_slack;
    Alcotest.test_case "node reports a torn frame" `Quick
      test_node_torn_frame;
  ]
