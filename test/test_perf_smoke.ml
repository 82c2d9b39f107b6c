(* Perf smoke tests: cheap, deterministic guards against hot-path
   regressions.

   Two kinds of check:

   - laziness: with tracing off (or an unread trace), the network layer
     must never invoke the payload printer — verified by counting calls,
     not by timing;
   - complexity shape: the indexed operations must beat the naive O(N)
     scans they replaced by a wide margin — verified by relative timing
     against a baseline reimplemented here, with a deliberately generous
     threshold (the real gap is orders of magnitude) so CI noise cannot
     flip the verdict. *)

open Ocube_mutex
module Engine = Ocube_sim.Engine
module Rng = Ocube_sim.Rng
module Trace = Ocube_sim.Trace
module Fdeque = Ocube_sim.Fdeque
module Opencube = Ocube_topology.Opencube

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* A payload whose printer counts invocations: any eager [Format] work on
   the trace path shows up as a nonzero count. *)
module Counting = struct
  let pp_calls = ref 0

  type t = Ping of int

  let pp ppf (Ping k) =
    incr pp_calls;
    Format.fprintf ppf "ping(%d)" k

  let category_names = [| "ping" |]

  let category_index _ = 0
end

module Net = Ocube_net.Network.Make (Counting)

let make_net ?trace () =
  let engine = Engine.create () in
  let net =
    Net.create ~engine ~rng:(Rng.create 1) ?trace ~n:4
      ~delay:(Ocube_net.Network.Constant 1.0) ()
  in
  (engine, net)

let test_trace_off_formats_nothing () =
  Counting.pp_calls := 0;
  let engine, net = make_net () in
  let received = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ -> incr received);
  for k = 1 to 50 do
    Net.send net ~src:0 ~dst:1 (Counting.Ping k)
  done;
  Engine.run engine;
  checki "all delivered" 50 !received;
  checki "no Format calls with tracing off" 0 !Counting.pp_calls

let test_trace_off_drop_path_formats_nothing () =
  (* Regression for the drop path: the scheduled closure used to format
     the payload for the "node down" record even with tracing off. The
     handler and the counter must keep working without any formatting. *)
  Counting.pp_calls := 0;
  let engine, net = make_net () in
  let dropped_seen = ref [] in
  Net.set_drop_handler net (fun ~dst payload -> dropped_seen := (dst, payload) :: !dropped_seen);
  Net.fail net 3;
  Net.send net ~src:0 ~dst:3 (Counting.Ping 9);
  Engine.run engine;
  (match !dropped_seen with
  | [ (3, Counting.Ping 9) ] -> ()
  | _ -> Alcotest.fail "drop handler did not fire");
  checki "dropped counter" 1 (Net.dropped_total net);
  checki "no Format calls on the drop path" 0 !Counting.pp_calls

let test_trace_on_formats_only_when_read () =
  Counting.pp_calls := 0;
  let trace = Trace.create () in
  let engine, net = make_net ~trace () in
  Net.set_handler net 1 (fun ~src:_ _ -> ());
  for k = 1 to 10 do
    Net.send net ~src:0 ~dst:1 (Counting.Ping k)
  done;
  Engine.run engine;
  checki "recording alone renders nothing" 0 !Counting.pp_calls;
  checki "entries were recorded" 20 (Trace.length trace) (* 10 send + 10 recv *);
  (* The trace's own laziness counters agree with the payload counter:
     all thunks pending, none forced. *)
  checki "thunks recorded" 20 (Trace.thunk_count trace);
  checki "nothing forced yet" 0 (Trace.forced_count trace);
  checki "all pending" 20 (Trace.pending_thunks trace);
  ignore (Trace.render trace);
  let after_first_read = !Counting.pp_calls in
  checkb "reading the trace renders details" true (after_first_read > 0);
  checki "forcing is observable" 20 (Trace.forced_count trace);
  checki "none left pending" 0 (Trace.pending_thunks trace);
  ignore (Trace.render trace);
  checki "details are memoized across reads" after_first_read !Counting.pp_calls;
  checki "memoized reads do not re-force" 20 (Trace.forced_count trace)

(* Regression: Trace.clear used to drop the entries but keep the
   thunk/forced counters, so a reused trace reported phantom pending
   thunks and the laziness assertions above broke on the second
   workload. A cleared trace must be indistinguishable from a fresh
   one. *)
let test_trace_clear_resets_laziness_counters () =
  Counting.pp_calls := 0;
  let trace = Trace.create () in
  let engine, net = make_net ~trace () in
  Net.set_handler net 1 (fun ~src:_ _ -> ());
  for k = 1 to 5 do
    Net.send net ~src:0 ~dst:1 (Counting.Ping k)
  done;
  Engine.run engine;
  ignore (Trace.render trace);
  checkb "counters are hot before the clear" true
    (Trace.thunk_count trace > 0 && Trace.forced_count trace > 0);
  Trace.clear trace;
  checki "no entries" 0 (Trace.length trace);
  checki "thunk counter reset" 0 (Trace.thunk_count trace);
  checki "forced counter reset" 0 (Trace.forced_count trace);
  checki "pending reset" 0 (Trace.pending_thunks trace);
  (* The cleared trace keeps working as a fresh one. *)
  Counting.pp_calls := 0;
  for k = 1 to 3 do
    Net.send net ~src:0 ~dst:1 (Counting.Ping k)
  done;
  Engine.run engine;
  checki "fresh thunks counted from zero" 6 (Trace.thunk_count trace);
  checki "still lazy after a clear" 0 !Counting.pp_calls

(* With tracing off the send path allocates nothing of its own: the
   delivery is a packed engine event over the network's message arena,
   and the per-category count is an array slot. What a send of a fresh
   [Ping k] allocates is the payload box, 2 words. Minor-word deltas are
   exact in OCaml, so the budget is a deterministic guard, not a timing
   heuristic: re-introducing even one eager closure on the disabled path
   raises the count, and an eager [Format.asprintf] (~hundreds of words)
   trips it immediately. The warm-up burst grows the arenas and the
   event heap to steady state first, so their amortised doubling is not
   charged to the measured sends. *)
let test_trace_off_send_allocation_budget () =
  let measure ?trace () =
    let engine, net = make_net ?trace () in
    Net.set_handler net 1 (fun ~src:_ _ -> ());
    let burst () =
      for k = 1 to 1000 do
        Net.send net ~src:0 ~dst:1 (Counting.Ping k)
      done
    in
    burst ();
    Engine.run engine;
    let before = Gc.minor_words () in
    burst ();
    let per_send = (Gc.minor_words () -. before) /. 1000.0 in
    Engine.run engine;
    per_send
  in
  let off = measure () in
  let on = measure ~trace:(Trace.create ()) () in
  checkb "tracing off allocates strictly less per send than tracing on" true
    (off < on);
  checkb
    (Printf.sprintf
       "tracing off allocates only the payload (%.1f words/send, budget 2)"
       off)
    true (off <= 2.0)

(* A timer is a packed engine event whose thunk is the callback itself:
   with the callback built once, arming and firing allocate nothing —
   no wrapper closure, no boxed fire time. *)
let test_set_timer_allocation_free () =
  let engine, net = make_net () in
  let fired = ref 0 in
  let callback () = incr fired in
  let burst () =
    for k = 0 to 999 do
      ignore (Net.set_timer net ~node:(k land 3) ~delay:1.0 callback)
    done;
    Engine.run engine
  in
  (* warm-up grows the event arena and the heap to steady state *)
  burst ();
  let before = Gc.minor_words () in
  burst ();
  let words = Gc.minor_words () -. before in
  checki "every timer fired" 2000 !fired;
  checki "minor words for 1000 arms + fires" 0 (int_of_float words)

(* With metrics on, every send runs the runner's tap: a per-source
   counter and a hop charged to the origin's open span. The tap reads
   the origin as an int, so a send of a prebuilt payload allocates
   nothing, attributed or not, with metrics on as with metrics off. *)
let test_metrics_send_tap_allocation_free () =
  let rid = { Types.source = 0; seq = 0 } in
  let attributed = Types.Message.Request { origin = 0; rid } in
  let unattributed = Types.Message.Token { lender = None; rid = None } in
  let words ~metrics =
    let env =
      Runner.make_env ~seed:1 ~n:4 ~delay:(Ocube_net.Network.Constant 1.0)
        ~cs:(Runner.Fixed 1.0) ~metrics ()
    in
    (match Runner.spans env with
    | Some spans -> Ocube_obs.Span.open_span spans ~node:0 ~time:0.0 ~busy:0.0
    | None -> ());
    let net = Runner.net env in
    Types.Net.set_default_handler net (fun ~dst:_ ~src:_ _ -> ());
    let burst () =
      for k = 0 to 499 do
        Types.Net.send net ~src:(k land 3) ~dst:1 attributed;
        Types.Net.send net ~src:(k land 3) ~dst:2 unattributed
      done
    in
    (* warm-up grows the message and event arenas *)
    burst ();
    Runner.run env;
    let before = Gc.minor_words () in
    burst ();
    let words = int_of_float (Gc.minor_words () -. before) in
    Runner.run env;
    words
  in
  checki "minor words for 1000 sends, metrics off" 0 (words ~metrics:false);
  checki "minor words for 1000 sends, metrics on" 0 (words ~metrics:true)

(* The fuzz oracle runs [invariant_check] after every event of a
   fault-free run, so each core answers from running tallies instead of
   rescanning its nodes. Pinned at zero minor words per call, like the
   per-send budget above, on a live mid-run state of each of the six
   cores: a reintroduced scan that builds a list trips it at once. *)
let test_invariant_check_allocation_free () =
  let module Scenario = Ocube_check.Scenario in
  let module Fuzz = Ocube_check.Fuzz in
  List.iter
    (fun algo ->
      let s =
        {
          Scenario.runtime = Scenario.Des;
          algo;
          p = 3;
          seed = 7;
          delay = Ocube_net.Network.Constant 1.0;
          cs = Runner.Fixed 2.0;
          ft = false;
          patience = 1.0;
          lifo = false;
          serial = false;
          arrivals = List.init 8 (fun i -> (1.0 +. (0.25 *. float_of_int i), i));
          faults = [];
        }
      in
      let b = Fuzz.build s in
      Runner.run_arrivals b.Fuzz.env s.Scenario.arrivals;
      Runner.run ~until:6.0 b.Fuzz.env;
      let name = b.Fuzz.inst.Types.algo_name in
      let check = b.Fuzz.inst.Types.invariant_check in
      (match check () with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: invariant broken mid-run: %s" name m);
      checkb (name ^ ": wishes still pending") true
        (Runner.outstanding b.Fuzz.env > 0);
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        match check () with Ok () -> () | Error _ -> assert false
      done;
      let words = Gc.minor_words () -. before in
      checki (name ^ ": minor words for 1000 checks") 0 (int_of_float words))
    Ocube_check.Scenario.Spec.all

(* --- trace on/off equivalence -------------------------------------------- *)

(* Same seed, same workload, tracing on vs off: laziness must not change
   the simulation — identical CS entry order and message counts. *)
let run_workload ~trace =
  let engine = Engine.create () in
  let rng = Rng.create 11 in
  let tr = if trace then Some (Trace.create ()) else None in
  let net =
    Types.Net.create ~engine ~rng ?trace:tr ~n:16
      ~delay:(Ocube_net.Network.Uniform { lo = 0.5; hi = 2.0 })
      ()
  in
  let entered = ref [] in
  let algo = ref None in
  let callbacks =
    {
      Types.on_enter =
        (fun i ->
          entered := i :: !entered;
          ignore
            (Types.Net.set_timer net ~node:i ~delay:2.0 (fun () ->
                 Opencube_algo.release_cs (Option.get !algo) i)));
      on_exit = ignore;
    }
  in
  let a =
    Opencube_algo.create ~net ~callbacks
      ~config:
        { (Opencube_algo.default_config ~p:4) with fault_tolerance = false }
  in
  algo := Some a;
  List.iteri
    (fun k node ->
      ignore
        (Engine.schedule engine ~delay:(0.3 *. float_of_int k) (fun () ->
             Opencube_algo.request_cs a node)))
    [ 5; 9; 7; 3; 12; 0; 9; 14; 1; 7 ];
  Engine.run engine;
  (List.rev !entered, Types.Net.sent_total net)

let test_trace_off_vs_on_equivalence () =
  let order_off, sent_off = run_workload ~trace:false in
  let order_on, sent_on = run_workload ~trace:true in
  Alcotest.(check (list int)) "same CS order" order_off order_on;
  checki "same message count" sent_off sent_on;
  checkb "workload actually ran" true (List.length order_off >= 10)

(* --- complexity shape ----------------------------------------------------- *)

let time_best ~reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let test_last_son_beats_naive_scan () =
  let p = 14 in
  let c = Opencube.build ~p in
  let n = 1 lsl p in
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let i = Rng.int rng n in
    if Opencube.last_son c i <> None then Opencube.b_transform c i
  done;
  let nodes = Array.init 64 (fun k -> k * 251 mod n) in
  (* The O(N) scan the index replaced, over the public API. *)
  let naive_last_son i =
    let pi = Opencube.power c i in
    let best = ref None in
    for j = n - 1 downto 0 do
      if Opencube.father c j = Some i && Opencube.dist i j = pi then
        best := Some j
    done;
    !best
  in
  Array.iter
    (fun i ->
      Alcotest.(check (option int))
        "indexed last_son agrees with the scan" (naive_last_son i)
        (Opencube.last_son c i))
    nodes;
  let t_indexed =
    time_best ~reps:5 (fun () ->
        Array.iter (fun i -> ignore (Opencube.last_son c i)) nodes)
  in
  let t_naive =
    time_best ~reps:5 (fun () ->
        Array.iter (fun i -> ignore (naive_last_son i)) nodes)
  in
  checkb "indexed last_son at least 3x faster than the O(N) scan" true
    (t_naive > 3.0 *. t_indexed)

let test_deque_beats_list_append () =
  let n = 3000 in
  let t_deque =
    time_best ~reps:3 (fun () ->
        let q = ref Fdeque.empty in
        for k = 1 to n do
          q := Fdeque.push_back !q k
        done;
        let continue = ref true in
        while !continue do
          match Fdeque.pop_front !q with
          | Some (_, q') -> q := q'
          | None -> continue := false
        done)
  in
  let t_list =
    time_best ~reps:3 (fun () ->
        let q = ref [] in
        for k = 1 to n do
          q := !q @ [ k ]
        done;
        while !q <> [] do
          match !q with _ :: tl -> q := tl | [] -> ()
        done)
  in
  checkb "deque at least 3x faster than the quadratic list append" true
    (t_list > 3.0 *. t_deque)

let suite =
  [
    Alcotest.test_case "trace off: send formats nothing" `Quick
      test_trace_off_formats_nothing;
    Alcotest.test_case "trace off: drop path formats nothing" `Quick
      test_trace_off_drop_path_formats_nothing;
    Alcotest.test_case "trace on: formatting deferred until read" `Quick
      test_trace_on_formats_only_when_read;
    Alcotest.test_case "Trace.clear resets the laziness counters" `Quick
      test_trace_clear_resets_laziness_counters;
    Alcotest.test_case "trace off: per-send allocation budget holds" `Quick
      test_trace_off_send_allocation_budget;
    Alcotest.test_case "invariant_check allocates nothing" `Quick
      test_invariant_check_allocation_free;
    Alcotest.test_case "trace on/off runs are equivalent" `Quick
      test_trace_off_vs_on_equivalence;
    Alcotest.test_case "last_son beats the O(N) scan" `Quick
      test_last_son_beats_naive_scan;
    Alcotest.test_case "deque beats the quadratic list queue" `Quick
      test_deque_beats_list_append;
    Alcotest.test_case "set_timer + fire allocates nothing" `Quick
      test_set_timer_allocation_free;
    Alcotest.test_case "metrics send tap allocates nothing" `Quick
      test_metrics_send_tap_allocation_free;
  ]
