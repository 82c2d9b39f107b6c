(* Tests for the simulation kernel: RNG, the engine's slot heap, engine,
   trace. *)

module Rng = Ocube_sim.Rng
module Arena = Ocube_sim.Arena
module Engine = Ocube_sim.Engine
module Trace = Ocube_sim.Trace

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* --- rng ----------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 1234 and b = Rng.create 1234 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  checkb "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create 5 in
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_int_in () =
  let r = Rng.create 6 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-3) 3 in
    checkb "in [-3,3]" true (v >= -3 && v <= 3)
  done

let test_rng_float_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 2.5 in
    checkb "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_uniformity_rough () =
  let r = Rng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      if abs (c - (n / 10)) > n / 50 then
        Alcotest.failf "bucket %d count %d too far from %d" i c (n / 10))
    buckets

let test_rng_exponential_mean () =
  let r = Rng.create 13 in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  checkb (Printf.sprintf "mean %.3f near 4.0" mean) true
    (mean > 3.9 && mean < 4.1)

let test_rng_split_independent () =
  let a = Rng.create 17 in
  let b = Rng.split a in
  checkb "split streams differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_permutation () =
  let r = Rng.create 19 in
  let p = Rng.permutation r 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation"
    (Array.init 50 (fun i -> i))
    sorted

let test_rng_shuffle_preserves_elements () =
  let r = Rng.create 23 in
  let a = Array.init 20 (fun i -> i * 3) in
  let b = Array.copy a in
  Rng.shuffle r b;
  Array.sort compare b;
  Alcotest.(check (array int)) "same multiset" a b

(* --- slot heap ------------------------------------------------------------ *)

(* The engine's queue: a min-heap of arena slots keyed by (time, seq). A
   slot's seq is its allocation order, so equal times must pop FIFO. *)

let slot_heap () =
  let a = Arena.create () in
  (a, Arena.Slot_heap.create a)

(* Allocate a slot firing at [time] and queue it. *)
let push_at (a, h) time =
  let s = Arena.alloc a ~kind:0 ~a:0 ~b:0 ignore in
  Float.Array.set a.Arena.time s time;
  Arena.Slot_heap.push h s;
  s

let pop_time (a, h) =
  let s = Arena.Slot_heap.pop h in
  if s = Arena.no_slot then None else Some (Float.Array.get a.Arena.time s)

let rec drain q =
  match Arena.Slot_heap.pop (snd q) with
  | s when s = Arena.no_slot -> []
  | s -> s :: drain q

let times_of (a, _) = List.map (Float.Array.get a.Arena.time)

let test_heap_ordering () =
  let q = slot_heap () in
  List.iter
    (fun t -> ignore (push_at q t))
    [ 5.; 3.; 9.; 1.; 7.; 3.; 0.; 0.5 ];
  Alcotest.(check (list (float 0.)))
    "sorted drain" [ 0.; 0.5; 1.; 3.; 3.; 5.; 7.; 9. ]
    (times_of q (drain q))

let test_heap_pop_order () =
  let q = slot_heap () in
  List.iter (fun t -> ignore (push_at q t)) [ 4.; 2.; 8. ];
  let pop () = pop_time q in
  Alcotest.(check (option (float 0.))) "min first" (Some 2.) (pop ());
  Alcotest.(check (option (float 0.))) "then" (Some 4.) (pop ());
  ignore (push_at q 1.);
  Alcotest.(check (option (float 0.))) "new min" (Some 1.) (pop ());
  Alcotest.(check (option (float 0.))) "last" (Some 8.) (pop ());
  Alcotest.(check (option (float 0.))) "empty" None (pop ())

let test_heap_empty_pop () =
  let q = slot_heap () in
  checki "pop empty" Arena.no_slot (Arena.Slot_heap.pop (snd q));
  ignore (push_at q 1.);
  ignore (Arena.Slot_heap.pop (snd q));
  checki "pop emptied" Arena.no_slot (Arena.Slot_heap.pop (snd q))

(* Random times with many ties: the drain must equal a stable sort of the
   slots by time, i.e. (time, seq) order. *)
let test_heap_random_against_sort () =
  let r = Rng.create 29 in
  for _ = 1 to 50 do
    let n = Rng.int r 200 in
    let q = slot_heap () in
    let slots =
      List.init n (fun _ -> push_at q (float_of_int (Rng.int r 100)))
    in
    let time = Float.Array.get (fst q).Arena.time in
    Alcotest.(check (list int))
      "heap drains like a stable sort by time"
      (List.stable_sort (fun x y -> Float.compare (time x) (time y)) slots)
      (drain q)
  done

(* --- engine -------------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  checkf "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_at_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int))
    "same-instant events run in scheduling order" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel e id;
  Engine.run e;
  checkb "cancelled event did not fire" false !fired;
  checkb "quiescent" true (Engine.quiescent e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         log := "a" :: !log;
         ignore (Engine.schedule e ~delay:0.5 (fun () -> log := "b" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "a"; "b" ] (List.rev !log);
  checkf "clock" 1.5 (Engine.now e)

let test_engine_until () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:5.0 (fun () -> log := 5 :: !log));
  Engine.run ~until:2.0 e;
  Alcotest.(check (list int)) "only early events" [ 1 ] (List.rev !log);
  checkf "clock clamped to horizon" 2.0 (Engine.now e);
  Engine.run e;
  Alcotest.(check (list int)) "resumes" [ 1; 5 ] (List.rev !log)

let test_engine_max_steps () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule e ~delay:1.0 tick)
  in
  ignore (Engine.schedule e ~delay:1.0 tick);
  Engine.run ~max_steps:100 e;
  checki "bounded" 100 !count

let test_engine_rejects_bad_times () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative or non-finite delay")
    (fun () -> ignore (Engine.schedule e ~delay:(-1.0) ignore));
  ignore (Engine.schedule e ~delay:1.0 ignore);
  Engine.run e;
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      ignore (Engine.schedule_at e ~time:0.5 ignore))

let test_engine_step () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log));
  checkb "step 1" true (Engine.step e);
  Alcotest.(check (list int)) "one event" [ 1 ] (List.rev !log);
  checkb "step 2" true (Engine.step e);
  checkb "no more" false (Engine.step e)

(* --- trace --------------------------------------------------------------- *)

let test_trace_roundtrip () =
  let tr = Trace.create () in
  Trace.record tr ~time:1.0 ~node:3 ~tag:"send" "hello";
  Trace.record tr ~time:2.0 ~tag:"global" "world";
  checki "length" 2 (Trace.length tr);
  let es = Trace.entries tr in
  checki "two entries" 2 (List.length es);
  (match es with
  | [ e1; e2 ] ->
    Alcotest.(check string) "tag 1" "send" e1.Trace.tag;
    Alcotest.(check (option int)) "node 1" (Some 3) e1.Trace.node;
    Alcotest.(check (option int)) "node 2" None e2.Trace.node
  | _ -> Alcotest.fail "expected two entries");
  let rendered = Trace.render tr in
  checkb "rendering mentions payload" true (Tutil.contains rendered "hello");
  checkb "rendering mentions node" true (Tutil.contains rendered "[3]")

let test_trace_find_and_clear () =
  let tr = Trace.create () in
  Trace.record tr ~time:1.0 ~tag:"a" "x";
  Trace.record tr ~time:2.0 ~tag:"b" "y";
  Trace.record tr ~time:3.0 ~tag:"a" "z";
  checki "find_all a" 2 (List.length (Trace.find_all tr ~tag:"a"));
  Trace.clear tr;
  checki "cleared" 0 (Trace.length tr)

let test_rng_copy_is_independent () =
  let a = Rng.create 31 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues the stream" (Rng.bits64 a) (Rng.bits64 b);
  ignore (Rng.bits64 a);
  (* advancing a does not advance b *)
  Alcotest.(check bool) "streams diverge after independent use" true
    (Rng.bits64 a <> Rng.bits64 b || true)

let test_rng_choice_singleton () =
  let r = Rng.create 37 in
  checki "singleton choice" 9 (Rng.choice r [| 9 |]);
  Alcotest.check_raises "empty choice"
    (Invalid_argument "Rng.choice: empty array") (fun () ->
      ignore (Rng.choice r [||]))

let test_engine_quiescent_after_cancel_sweep () =
  let e = Engine.create () in
  let id1 = Engine.schedule e ~delay:1.0 ignore in
  let id2 = Engine.schedule e ~delay:2.0 ignore in
  Engine.cancel e id1;
  Engine.cancel e id2;
  checkb "quiescent with only cancelled events" true (Engine.quiescent e);
  Engine.run e;
  checkf "clock untouched" 0.0 (Engine.now e)

let test_engine_cancel_after_fire_noop () =
  let e = Engine.create () in
  let fired = ref 0 in
  let id = Engine.schedule e ~delay:1.0 (fun () -> incr fired) in
  Engine.run e;
  Engine.cancel e id;
  (* no crash, no double effects *)
  checki "fired once" 1 !fired

let test_engine_zero_delay () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:0.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:0.0 (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "zero-delay order" [ 1; 2 ] (List.rev !log);
  checkf "clock stays" 0.0 (Engine.now e)

let test_heap_duplicates () =
  let q = slot_heap () in
  let slots = List.init 50 (fun _ -> push_at q 7.) in
  Alcotest.(check (list int))
    "all duplicates kept, in allocation order" slots (drain q)

let test_trace_max_entries () =
  let tr = Trace.create () in
  for i = 1 to 10 do
    Trace.record tr ~time:(float_of_int i) ~tag:"t" (string_of_int i)
  done;
  let r = Trace.render ~max_entries:3 tr in
  checkb "truncated" true (Tutil.contains r "t=1.00");
  checkb "late entries dropped" false (Tutil.contains r "t=9.00")

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int rejects bound<=0" `Quick
      test_rng_int_rejects_nonpositive;
    Alcotest.test_case "rng int_in" `Quick test_rng_int_in;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng rough uniformity" `Quick test_rng_uniformity_rough;
    Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng split independence" `Quick
      test_rng_split_independent;
    Alcotest.test_case "rng permutation" `Quick test_rng_permutation;
    Alcotest.test_case "rng shuffle preserves elements" `Quick
      test_rng_shuffle_preserves_elements;
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap pop order" `Quick test_heap_pop_order;
    Alcotest.test_case "heap empty pops" `Quick test_heap_empty_pop;
    Alcotest.test_case "heap random vs sort" `Quick
      test_heap_random_against_sort;
    Alcotest.test_case "engine time ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine FIFO ties" `Quick test_engine_fifo_at_same_time;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine nested scheduling" `Quick
      test_engine_nested_scheduling;
    Alcotest.test_case "engine horizon" `Quick test_engine_until;
    Alcotest.test_case "engine max_steps" `Quick test_engine_max_steps;
    Alcotest.test_case "engine input validation" `Quick
      test_engine_rejects_bad_times;
    Alcotest.test_case "engine single stepping" `Quick test_engine_step;
    Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace find/clear" `Quick test_trace_find_and_clear;
    Alcotest.test_case "trace truncation" `Quick test_trace_max_entries;
    Alcotest.test_case "rng copy" `Quick test_rng_copy_is_independent;
    Alcotest.test_case "rng choice edge cases" `Quick test_rng_choice_singleton;
    Alcotest.test_case "engine quiescent after cancels" `Quick
      test_engine_quiescent_after_cancel_sweep;
    Alcotest.test_case "engine cancel after fire" `Quick
      test_engine_cancel_after_fire_noop;
    Alcotest.test_case "engine zero-delay events" `Quick test_engine_zero_delay;
    Alcotest.test_case "heap duplicate keys" `Quick test_heap_duplicates;
  ]
