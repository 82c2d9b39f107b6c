(* Tests for the model checker: the shipped open-cube core run as a
   state machine over the in-memory bag runtime, and the exhaustive
   explorer over it. *)

module Machine = Ocube_model.Machine
module Bag = Ocube_model.Bag
module Explore = Ocube_model.Explore
module Image = Ocube_mutex.Opencube_algo.Image
open Ocube_mutex

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let field st i f = (Machine.image st).(Image.header + (i * Image.stride) + f)
let has_token st i = field st i Image.flags land Image.token <> 0
let in_cs st i = field st i Image.flags land Image.in_cs <> 0

(* --- model basics ----------------------------------------------------------- *)

let test_initial_state () =
  let st = Machine.initial ~p:2 ~wishes:1 in
  checkb "node 0 has the token" true (has_token st 0);
  checki "father of 3" 2 (field st 3 Image.father);
  checki "no messages" 0 (List.length st.Machine.bag);
  checkb "invariants hold" true (Machine.check_invariants st = Ok ())

let test_transitions_from_initial () =
  let st = Machine.initial ~p:1 ~wishes:1 in
  let ts = Machine.transitions st in
  (* Both nodes can wish; nothing else. *)
  checki "two transitions" 2 (List.length ts);
  List.iter
    (fun (t, st') ->
      (match t with
      | Machine.Wish _ -> ()
      | _ -> Alcotest.fail "expected only wishes");
      checkb "successor invariant" true (Machine.check_invariants st' = Ok ()))
    ts

let test_holder_wish_enters_directly () =
  let st = Machine.initial ~p:1 ~wishes:1 in
  match
    List.find_opt (fun (t, _) -> t = Machine.Wish 0) (Machine.transitions st)
  with
  | Some (_, st') ->
    checkb "node 0 in CS" true (in_cs st' 0);
    checki "no message needed" 0 (List.length st'.Machine.bag)
  | None -> Alcotest.fail "wish of node 0 not enabled"

let test_terminal_check_rejects_deadlock () =
  let st = Machine.initial ~p:1 ~wishes:1 in
  (* Initial state is not a legal terminal (wishes left). *)
  checkb "not terminal-legal" true (Machine.check_terminal st <> Ok ())

let test_invariant_checker_catches_corruption () =
  let st = Machine.initial ~p:1 ~wishes:0 in
  let img = Machine.image st in
  let b = Image.header + Image.stride + Image.flags in
  img.(b) <- img.(b) lor Image.token;
  checkb "double token caught" true
    (Machine.check_invariants
       (Machine.of_image img ~env:st.Machine.env ~bag:st.Machine.bag)
    <> Ok ())

(* --- exhaustive exploration ------------------------------------------------ *)

let explore p wishes =
  try Explore.run ~p ~wishes ()
  with Explore.Violation v ->
    Alcotest.failf "violation: %s\n%s" v.Explore.message
      (Format.asprintf "%a" Machine.pp v.Explore.state)

let test_exhaustive_tiny () =
  let s = explore 1 1 in
  checki "states (p=1,w=1)" 21 s.Explore.states;
  checki "terminals" 2 s.Explore.terminals;
  let s = explore 1 2 in
  checki "states (p=1,w=2)" 79 s.Explore.states

let test_exhaustive_four_nodes () =
  let s = explore 2 1 in
  checki "states (p=2,w=1)" 1064 s.Explore.states;
  checki "terminals (p=2,w=1)" 18 s.Explore.terminals;
  checkb "concurrency was real" true (s.Explore.max_in_flight >= 3)

let test_exhaustive_four_nodes_two_wishes () =
  let s = explore 2 2 in
  checki "states (p=2,w=2)" 51362 s.Explore.states;
  checki "terminals (p=2,w=2)" 278 s.Explore.terminals

let test_exhaustive_four_nodes_three_wishes () =
  let s = explore 2 3 in
  checki "states (p=2,w=3)" 1147086 s.Explore.states

(* The parallel explorer's stats are a function of the reachable state
   set and the level structure, not of domain scheduling: every count
   must equal the serial run's. *)
let test_parallel_explore_parity () =
  List.iter
    (fun (p, wishes) ->
      let serial = explore p wishes in
      let par =
        try Explore.run ~jobs:4 ~p ~wishes ()
        with Explore.Violation v ->
          Alcotest.failf "parallel violation: %s" v.Explore.message
      in
      checkb
        (Printf.sprintf "stats match at p=%d w=%d" p wishes)
        true (serial = par))
    [ (1, 2); (2, 1); (2, 2) ]

(* --- faults ---------------------------------------------------------------- *)

let test_exhaustive_with_faults () =
  let s =
    try Explore.run ~max_faults:1 ~p:2 ~wishes:1 ()
    with Explore.Violation v ->
      Alcotest.failf "violation under faults: %s" v.Explore.message
  in
  checki "states (p=2,w=1,f=1)" 1911 s.Explore.states;
  checki "transitions (p=2,w=1,f=1)" 4658 s.Explore.transitions;
  checki "terminals (p=2,w=1,f=1)" 34 s.Explore.terminals;
  (* crashes strictly enlarge the fault-free space *)
  checkb "fault space contains fault-free space" true (s.Explore.states > 1064)

(* --- symmetry reduction ----------------------------------------------------- *)

let strip_spill (s : Explore.stats) =
  { s with Explore.spilled_segments = 0; spilled_bytes = 0 }

let catch_violation f =
  match f () with
  | (_ : Explore.stats) -> None
  | exception Explore.Violation v -> Some v

(* The quotient search must agree with itself at every jobs width, be
   strictly smaller than the raw search, and cover it (orbit bound). *)
let test_symmetry_clean_parity () =
  let raw = explore 2 1 in
  let sym1 =
    try Explore.run ~symmetry:true ~jobs:1 ~p:2 ~wishes:1 ()
    with Explore.Violation v -> Alcotest.failf "sym: %s" v.Explore.message
  in
  let sym4 =
    try Explore.run ~symmetry:true ~jobs:4 ~p:2 ~wishes:1 ()
    with Explore.Violation v -> Alcotest.failf "sym j4: %s" v.Explore.message
  in
  checkb "bit-identical at jobs 1 and 4" true (sym1 = sym4);
  checki "quotient states (p=2,w=1)" 643 sym1.Explore.states;
  checkb "quotient strictly smaller than raw" true
    (sym1.Explore.states < raw.Explore.states);
  checkb "orbit bound covers the raw count" true
    (sym1.Explore.orbit_states >= raw.Explore.states);
  (* faults keep the quotient sound too *)
  let fsym =
    try Explore.run ~max_faults:1 ~symmetry:true ~p:2 ~wishes:1 ()
    with Explore.Violation v -> Alcotest.failf "sym+faults: %s" v.Explore.message
  in
  checki "quotient states (p=2,w=1,f=1)" 942 fsym.Explore.states

(* The seeded duplicating link (a runtime bug: a token crossing the top
   dimension is delivered and also left in flight): every engine finds it,
   and all of them report the same state and the same trace — serial,
   parallel at jobs 2 and 4, symmetry-reduced at jobs 1 and 4, and
   spilling. *)
let test_symmetry_violation_parity () =
  let bug ?mem_budget jobs symmetry () =
    Explore.run ~variant:Machine.Duplicating_link ?mem_budget ~jobs ~symmetry
      ~p:2 ~wishes:2 ()
  in
  let runs =
    [
      ("serial", catch_violation (bug 1 false));
      ("jobs 2", catch_violation (bug 2 false));
      ("jobs 4", catch_violation (bug 4 false));
      ("symmetry", catch_violation (bug 1 true));
      ("symmetry jobs 4", catch_violation (bug 4 true));
      ("spill", catch_violation (bug ~mem_budget:1 2 false));
    ]
  in
  match runs with
  | (_, Some a) :: _ ->
    List.iter
      (fun (name, v) ->
        match v with
        | None -> Alcotest.failf "%s run missed the bug" name
        | Some b ->
          checkb (name ^ ": same message") true
            (String.equal a.Explore.message b.Explore.message);
          checkb (name ^ ": same trace") true (a.Explore.trace = b.Explore.trace);
          checkb (name ^ ": same state") true
            (String.equal
               (Machine.encode a.Explore.state)
               (Machine.encode b.Explore.state)))
      runs
  | _ -> Alcotest.fail "unreduced run missed the bug"

(* Reported traces are real executions: replaying the labels from the
   initial state lands exactly on the reported violating state — for the
   fused serial engine and for the de-canonicalized symmetry engine. *)
let test_violation_trace_replays () =
  List.iter
    (fun (name, symmetry) ->
      match
        catch_violation (fun () ->
            Explore.run ~variant:Machine.Duplicating_link ~symmetry ~p:2
              ~wishes:2 ())
      with
      | None -> Alcotest.failf "%s: expected a violation" name
      | Some v ->
        let final =
          Explore.replay ~variant:Machine.Duplicating_link ~p:2 ~wishes:2
            v.Explore.trace
        in
        checkb
          (name ^ ": replay reaches the reported state")
          true
          (String.equal (Machine.encode final) (Machine.encode v.Explore.state));
        checkb
          (name ^ ": replayed state violates the invariants")
          true
          (Machine.check_invariants final <> Ok ()))
    [ ("serial", false); ("symmetry", true) ]

(* --- disk spill ------------------------------------------------------------- *)

let temp_segments () =
  let dir = Filename.get_temp_dir_name () in
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f ->
         String.length f >= 14 && String.equal (String.sub f 0 14) "ocube-frontier")

(* A tiny budget forces every level to spill; all counts stay
   byte-identical to the in-memory runs and no temp files survive. *)
let test_spill_byte_identical () =
  let before = List.length (temp_segments ()) in
  let base = explore 2 1 in
  let sp =
    try Explore.run ~mem_budget:64 ~p:2 ~wishes:1 ()
    with Explore.Violation v -> Alcotest.failf "spill: %s" v.Explore.message
  in
  checkb "every level spilled" true (sp.Explore.spilled_segments > 100);
  checkb "counts byte-identical to the in-memory run" true
    (strip_spill sp = base);
  let sym =
    try Explore.run ~symmetry:true ~p:2 ~wishes:1 ()
    with Explore.Violation v -> Alcotest.failf "sym: %s" v.Explore.message
  in
  let sym_sp =
    try Explore.run ~symmetry:true ~jobs:4 ~mem_budget:1 ~p:2 ~wishes:1 ()
    with Explore.Violation v -> Alcotest.failf "sym spill: %s" v.Explore.message
  in
  checkb "symmetry + spill + jobs identical to symmetry alone" true
    (strip_spill sym_sp = sym);
  checki "temp files cleaned up on normal exit" before
    (List.length (temp_segments ()))

let test_spill_cleanup_on_violation () =
  let before = List.length (temp_segments ()) in
  (match
     catch_violation (fun () ->
         Explore.run ~variant:Machine.Duplicating_link ~mem_budget:1 ~p:2
           ~wishes:2 ())
   with
  | None -> Alcotest.fail "expected a violation"
  | Some _ -> ());
  checki "temp files cleaned up when a violation is raised" before
    (List.length (temp_segments ()))

(* Random canonical states for the encoding properties: a seeded random
   walk through the transition graph. *)
let random_walk ~seed ~p ~wishes ~steps =
  let rng = Ocube_sim.Rng.create seed in
  let st = ref (Machine.initial ~p ~wishes) in
  let acc = ref [ !st ] in
  (try
     for _ = 1 to steps do
       match Machine.transitions !st with
       | [] -> raise Exit
       | ts ->
         let _, st' = List.nth ts (Ocube_sim.Rng.int rng (List.length ts)) in
         st := st';
         acc := st' :: !acc
     done
   with Exit -> ());
  !acc

let qcheck_encoding_tests =
  let open QCheck in
  [
    Test.make ~count:100 ~name:"decode . encode = id on canonical states"
      (int_range 0 100_000)
      (fun seed ->
        let p = 1 + (seed mod 2) in
        let states = random_walk ~seed ~p ~wishes:2 ~steps:20 in
        List.for_all
          (fun st -> Machine.decode (Machine.encode st) = st)
          states);
    Test.make ~count:60
      ~name:"encode collides iff canonical states are equal"
      (int_range 0 100_000)
      (fun seed ->
        let states =
          Array.of_list (random_walk ~seed ~p:2 ~wishes:2 ~steps:16)
        in
        let n = Array.length states in
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            let same_key =
              String.equal (Machine.encode states.(i)) (Machine.encode states.(j))
            in
            let same_state = states.(i) = states.(j) in
            if same_key <> same_state then ok := false
          done
        done;
        !ok);
  ]

let test_state_cap () =
  checkb "cap enforced" true
    (try
       ignore (Explore.run ~max_states:100 ~p:2 ~wishes:2 ());
       false
     with Failure _ -> true)

(* --- the bag runtime and the core's image ------------------------------------ *)

(* The bag runtime refuses to arm a timer, and carries only Section 3
   messages: a core with fault tolerance on trips it at its first wish. *)
let test_bag_refuses_section5 () =
  let net = Bag.create ~n:4 in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  checkb "set_timer refuses" true
    (raises (fun () -> Bag.set_timer net ~node:1 ~delay:1.0 ignore));
  checkb "a Section 5 message is refused" true
    (raises (fun () ->
         Bag.send net ~src:0 ~dst:1 (Types.Message.Test { d = 1 })));
  let module Core = Opencube_algo.Make (Bag) in
  let core =
    Core.create ~net ~callbacks:Types.null_callbacks
      ~config:(Opencube_algo.default_config ~p:2)
  in
  checkb "fault-tolerant core arms a timer and is refused" true
    (raises (fun () -> Core.request_cs core 3))

(* Every reachable state. *)
let reachable ~p ~wishes =
  let seen = Hashtbl.create 1024 in
  let rec bfs acc = function
    | [] -> acc
    | frontier ->
      let next =
        List.concat_map
          (fun st ->
            List.filter_map
              (fun (_, st') ->
                let k = Machine.encode st' in
                if Hashtbl.mem seen k then None
                else begin
                  Hashtbl.add seen k ();
                  Some st'
                end)
              (Machine.transitions st))
          frontier
      in
      bfs (List.rev_append frontier acc) next
  in
  let init = Machine.initial ~p ~wishes in
  Hashtbl.add seen (Machine.encode init) ();
  bfs [] [ init ]

(* The explorer runs each (operation, node) pair through the core once and
   reuses its effect, on the premise that a handler reads and writes only
   its own node. Checked here against a fresh run of the core on the whole
   state, for every transition of every reachable state at p <= 2 (and a
   random walk at p = 3); [load] then [export] is the identity on each
   state. Keys past one byte per field round-trip, and [export] refuses a
   fault-tolerant core. *)
let test_image_round_trip () =
  let module Core = Opencube_algo.Make (Bag) in
  let check_states p states =
    let net = Bag.create ~n:(1 lsl p) in
    let core =
      Core.create ~net ~callbacks:Types.null_callbacks
        ~config:{ (Opencube_algo.default_config ~p) with fault_tolerance = false }
    in
    let bad = ref 0 in
    List.iter
      (fun st ->
        let img = Machine.image st in
        Core.load core img;
        if Core.export core <> img then incr bad;
        List.iter
          (fun (tr, st') ->
            Core.load core img;
            Bag.set_bag net st.Machine.bag;
            (match tr with
            | Machine.Wish i -> Core.request_cs core i
            | Machine.Exit i -> Core.release_cs core i
            | Machine.Deliver m -> Bag.deliver net ~keep:false m
            | Machine.Crash _ -> ());
            if Core.export core <> Machine.image st' || Bag.bag net <> st'.Machine.bag
            then incr bad)
          (Machine.transitions st))
      states;
    checki (Printf.sprintf "steps differing from a fresh core run (p=%d)" p) 0 !bad
  in
  check_states 1 (reachable ~p:1 ~wishes:3);
  check_states 2 (reachable ~p:2 ~wishes:1);
  check_states 2 (reachable ~p:2 ~wishes:2);
  check_states 3 (random_walk ~seed:12 ~p:3 ~wishes:1 ~steps:60);
  List.iter
    (fun st ->
      checkb "decode (encode st) = st past one byte" true
        (Machine.decode (Machine.encode st) = st))
    (random_walk ~seed:13 ~p:8 ~wishes:200 ~steps:30);
  let env =
    Runner.make_env ~seed:1 ~n:4 ~delay:(Ocube_net.Network.Constant 1.0)
      ~cs:(Runner.Fixed 1.0) ()
  in
  let des =
    Opencube_algo.create ~net:(Runner.net env) ~callbacks:(Runner.callbacks env)
      ~config:(Opencube_algo.default_config ~p:2)
  in
  checkb "export refuses fault tolerance" true
    (match Opencube_algo.export des with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "transitions from initial" `Quick
      test_transitions_from_initial;
    Alcotest.test_case "holder wish enters directly" `Quick
      test_holder_wish_enters_directly;
    Alcotest.test_case "terminal check rejects deadlock" `Quick
      test_terminal_check_rejects_deadlock;
    Alcotest.test_case "invariant checker catches corruption" `Quick
      test_invariant_checker_catches_corruption;
    Alcotest.test_case "exhaustive: 2 nodes" `Quick test_exhaustive_tiny;
    Alcotest.test_case "exhaustive: 4 nodes, 1 wish (1064 states)" `Quick
      test_exhaustive_four_nodes;
    Alcotest.test_case "exhaustive: 4 nodes, 2 wishes (51k states)" `Quick
      test_exhaustive_four_nodes_two_wishes;
    Alcotest.test_case "exhaustive: 4 nodes, 3 wishes (1.1M states)" `Slow
      test_exhaustive_four_nodes_three_wishes;
    Alcotest.test_case "state cap enforced" `Quick test_state_cap;
    Alcotest.test_case "parallel explorer = serial counts" `Quick
      test_parallel_explore_parity;
    Alcotest.test_case "exhaustive with crash faults (p=2)" `Quick
      test_exhaustive_with_faults;
    Alcotest.test_case "symmetry: clean parity + strict reduction" `Quick
      test_symmetry_clean_parity;
    Alcotest.test_case "symmetry: violation parity across jobs" `Quick
      test_symmetry_violation_parity;
    Alcotest.test_case "violation traces replay exactly" `Quick
      test_violation_trace_replays;
    Alcotest.test_case "spill: byte-identical counts + cleanup" `Quick
      test_spill_byte_identical;
    Alcotest.test_case "spill: cleanup on violation" `Quick
      test_spill_cleanup_on_violation;
    Alcotest.test_case "bag runtime refuses Section 5" `Quick
      test_bag_refuses_section5;
    Alcotest.test_case "every step equals a fresh core run" `Quick
      test_image_round_trip;
  ]
  @ List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qcheck_encoding_tests
