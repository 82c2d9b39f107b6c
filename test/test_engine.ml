(* The engine's event-queue contract.

   Events fire in the global (time, seq) order: earlier time first, equal
   times in scheduling order. Cancelled events never fire, stale timer
   ids are harmless, [run ~until] parks the clock without losing the
   event it stopped at, and the packed hot path allocates nothing. A
   qcheck property drives randomized schedule/cancel/nested scripts
   through the engine and compares the fire log with a small pure
   reference interpreter; a pinned fuzz checksum covers the same order
   end to end through the protocol stack. *)

module Engine = Ocube_sim.Engine
module Fuzz = Ocube_check.Fuzz

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- fire order ------------------------------------------------------------ *)

(* Re-entrant scheduling: a handler's zero-delay event fires after the
   events already queued for the same instant, and its later events
   queue behind same-time events scheduled before them. *)
let test_nested_fire_order () =
  let e = Engine.create () in
  let b = Buffer.create 256 in
  let log tag = Printf.bprintf b "%s@%g;" tag (Engine.now e) in
  ignore
    (Engine.schedule e ~delay:3.0 (fun () ->
         log "outer";
         ignore (Engine.schedule e ~delay:0.0 (fun () -> log "nested0"));
         ignore (Engine.schedule e ~delay:1.0 (fun () -> log "nested1"));
         ignore (Engine.schedule e ~delay:100.0 (fun () -> log "far"))));
  ignore (Engine.schedule e ~delay:3.0 (fun () -> log "tie"));
  ignore (Engine.schedule e ~delay:4.0 (fun () -> log "next"));
  Engine.run e;
  checks "fire log with re-entrant schedules"
    "outer@3;tie@3;nested0@3;next@4;nested1@4;far@103;" (Buffer.contents b)

let test_astronomical_times () =
  let e = Engine.create () in
  let b = Buffer.create 128 in
  let log tag = Printf.bprintf b "%s;" tag in
  ignore (Engine.schedule_at e ~time:1e300 (fun () -> log "huge-a"));
  ignore (Engine.schedule_at e ~time:1e300 (fun () -> log "huge-b"));
  ignore
    (Engine.schedule_at e ~time:1e299 (fun () ->
         log "first";
         ignore (Engine.schedule_at e ~time:1e301 (fun () -> log "later"))));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log "near"));
  Engine.run e;
  checks "order" "near;first;huge-a;huge-b;later;" (Buffer.contents b)

(* --- cancellation ---------------------------------------------------------- *)

(* A stale id must stay dead after its arena slot is reused. *)
let test_stale_id_after_reuse () =
  let e = Engine.create () in
  let n = ref 0 in
  let old_id = Engine.schedule e ~delay:1.0 (fun () -> incr n) in
  Engine.cancel e old_id;
  (* the freed slot is recycled by the next schedule *)
  let fresh = Engine.schedule e ~delay:2.0 (fun () -> incr n) in
  Engine.cancel e old_id;
  (* must not kill the recycled slot *)
  checki "recycled event still pending" 1 (Engine.pending e);
  Engine.run e;
  checki "recycled event fired" 1 !n;
  Engine.cancel e fresh (* post-fire cancel is a no-op *)

(* --- run ~until push-back -------------------------------------------------- *)

let test_run_until_pushback () =
  let e = Engine.create () in
  let b = Buffer.create 64 in
  let log tag = Printf.bprintf b "%s@%g;" tag (Engine.now e) in
  ignore (Engine.schedule e ~delay:10.0 (fun () -> log "early"));
  ignore (Engine.schedule e ~delay:1000.0 (fun () -> log "far"));
  Engine.run ~until:50.0 e;
  checkb "clock parked at until" true (Float.equal (Engine.now e) 50.0);
  checki "far event still pending" 1 (Engine.pending e);
  (* a nearer event scheduled after the pause must overtake the
     pushed-back one *)
  ignore (Engine.schedule e ~delay:10.0 (fun () -> log "mid"));
  Engine.run e;
  checks "order across the pause" "early@10;mid@60;far@1000;"
    (Buffer.contents b)

(* --- packed events --------------------------------------------------------- *)

(* Packed and closure events share one (time, seq) order: the same delays
   give the same fire log on either path. *)
let test_packed_parity () =
  let delays = [ 0.0; 0.25; 0.25; 0.5; 64.0; 64.0; 3.25; 1e6; 0.0 ] in
  let closures =
    let e = Engine.create () in
    let b = Buffer.create 128 in
    List.iteri
      (fun i d ->
        ignore
          (Engine.schedule e ~delay:d (fun () ->
               Printf.bprintf b "%d:%d;" i (2 * i))))
      delays;
    Engine.run e;
    Buffer.contents b
  in
  let packed =
    let e = Engine.create () in
    let b = Buffer.create 128 in
    let cls =
      Engine.register_class e (fun _ a x -> Printf.bprintf b "%d:%d;" a x)
    in
    List.iteri
      (fun i d ->
        ignore (Engine.schedule_packed e ~delay:d ~cls ~a:i ~b:(2 * i) ignore))
      delays;
    Engine.run e;
    Buffer.contents b
  in
  checks "packed log = closure log" closures packed;
  checks "(time, seq) order" "0:0;8:16;1:2;2:4;3:6;6:12;4:8;5:10;7:14;" packed

(* Steady-state packed schedule/fire must not allocate on the minor heap:
   the whole point of the arena encoding is a closure-free hot path. The
   budget (a tenth of a word per event) only absorbs the measurement's
   own boxed [Gc.minor_words] results. *)
let test_packed_zero_alloc () =
  let e = Engine.create () in
  let acc = ref 0 in
  let cls = Engine.register_class e (fun _ a b -> acc := !acc + a + b) in
  let burst () =
    for i = 1 to 1024 do
      ignore (Engine.schedule_packed e ~delay:3.0 ~cls ~a:i ~b:1 ignore)
    done;
    Engine.run e
  in
  (* warm-up grows the arena and the heap to steady state *)
  burst ();
  burst ();
  let before = Gc.minor_words () in
  burst ();
  let per_event = (Gc.minor_words () -. before) /. 1024.0 in
  checkb
    (Printf.sprintf "allocation-free schedule/fire (%.2f words/event)"
       per_event)
    true (per_event <= 0.1)

(* --- qcheck: randomized scripts against a reference ------------------------ *)

type item = { delay : float; nested : float list; cancel : int option }

(* Delays as small multiples of an eighth keep every sum exactly
   representable; the narrow range salts in same-time ties. *)
let delay_gen =
  QCheck.Gen.(
    map
      (fun i -> float_of_int i /. 8.0)
      (oneof [ int_bound 2048; int_bound 4 ]))

let script_gen =
  QCheck.Gen.(
    int_range 1 24 >>= fun n ->
    list_size (return n)
      (map3
         (fun delay nested cancel -> { delay; nested; cancel })
         delay_gen
         (list_size (int_bound 3) delay_gen)
         (opt (int_bound (n - 1)))))

let script_print script =
  String.concat " "
    (List.mapi
       (fun i it ->
         Printf.sprintf "%d:{d=%h nested=[%s]%s}" i it.delay
           (String.concat "," (List.map (Printf.sprintf "%h") it.nested))
           (match it.cancel with
           | Some j -> Printf.sprintf " cancel=%d" j
           | None -> ""))
       script)

(* Interpret a script on the engine: schedule every item up front, then
   let each firing log itself, spawn its nested events and cancel its
   victim. *)
let run_script script =
  let items = Array.of_list script in
  let e = Engine.create () in
  let b = Buffer.create 512 in
  let ids = Array.make (Array.length items) None in
  Array.iteri
    (fun i it ->
      ids.(i) <-
        Some
          (Engine.schedule e ~delay:it.delay (fun () ->
               Printf.bprintf b "%d@%h;" i (Engine.now e);
               List.iteri
                 (fun j d ->
                   ignore
                     (Engine.schedule e ~delay:d (fun () ->
                          Printf.bprintf b "%d.%d@%h;" i j (Engine.now e))))
                 it.nested;
               match it.cancel with
               | Some j -> (
                 match ids.(j) with
                 | Some id -> Engine.cancel e id
                 | None -> ())
               | None -> ())))
    items;
  Engine.run e;
  checki "quiescent after script" 0 (Engine.pending e);
  Buffer.contents b

(* The same script by the definition: repeatedly fire the pending event
   with the least (time, seq), where seq counts schedules; a fired
   item's nested events get the next seqs, then its victim is dropped if
   still pending. *)
type ev = Item of int | Nested of int * int

let reference script =
  let items = Array.of_list script in
  let b = Buffer.create 512 in
  let seq = ref 0 in
  let add pending time ev =
    let s = !seq in
    incr seq;
    (time, s, ev) :: pending
  in
  let pending = ref [] in
  List.iteri (fun i it -> pending := add !pending it.delay (Item i)) script;
  let earlier (t1, s1, _) (t2, s2, _) = t1 < t2 || (t1 = t2 && s1 < s2) in
  let rec loop () =
    match !pending with
    | [] -> ()
    | first :: rest ->
      let now, s, ev =
        List.fold_left (fun m x -> if earlier x m then x else m) first rest
      in
      pending := List.filter (fun (_, s', _) -> s' <> s) !pending;
      (match ev with
      | Nested (i, j) -> Printf.bprintf b "%d.%d@%h;" i j now
      | Item i ->
        let it = items.(i) in
        Printf.bprintf b "%d@%h;" i now;
        List.iteri
          (fun j d -> pending := add !pending (now +. d) (Nested (i, j)))
          it.nested;
        Option.iter
          (fun victim ->
            pending :=
              List.filter (fun (_, _, ev) -> ev <> Item victim) !pending)
          it.cancel);
      loop ()
  in
  loop ();
  Buffer.contents b

let qcheck_script_reference =
  QCheck.Test.make ~count:300 ~name:"script fire log = reference"
    (QCheck.make ~print:script_print script_gen)
    (fun script -> String.equal (run_script script) (reference script))

(* --- end-to-end: pinned fuzz campaign checksum ----------------------------- *)

(* The full protocol stack (all algorithms, faults, delay models) depends
   on the engine's fire order; this slice's in-order digest checksum was
   recorded when the timing wheel and the heap were both in use and
   agreed on it. CI pins the 10k-scenario checksum the same way. *)
let test_fuzz_checksum_pinned () =
  let r = Fuzz.campaign ~iters:250 ~fuzz_seed:90210 () in
  checkb "no failure" true (r.Fuzz.failure = None);
  checki "all scenarios ran" 250 r.Fuzz.ran;
  checki "pinned digest checksum" 290361193519531730 r.Fuzz.checksum

let suite =
  [
    Alcotest.test_case "nested fire order" `Quick test_nested_fire_order;
    Alcotest.test_case "astronomical times" `Quick test_astronomical_times;
    Alcotest.test_case "stale id after slot reuse" `Quick
      test_stale_id_after_reuse;
    Alcotest.test_case "run ~until push-back" `Quick test_run_until_pushback;
    Alcotest.test_case "packed fire parity" `Quick test_packed_parity;
    Alcotest.test_case "packed zero-alloc" `Quick test_packed_zero_alloc;
    Alcotest.test_case "fuzz checksum pinned" `Quick test_fuzz_checksum_pinned;
  ]
  @ [ QCheck_alcotest.to_alcotest ~long:false qcheck_script_reference ]
