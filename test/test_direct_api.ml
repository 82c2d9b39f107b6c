(* Driving Opencube_algo directly through its public API - no Runner -
   the way an embedding application would: own engine, own callbacks, own
   release scheduling. Also unit-tests the protocol types. *)

open Ocube_mutex
module Engine = Ocube_sim.Engine
module Rng = Ocube_sim.Rng

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

type sys = {
  engine : Engine.t;
  net : Types.Net.t;
  algo : Opencube_algo.t;
  entered : Types.node_id list ref;
  exited : Types.node_id list ref;
}

let make_sys ?(p = 3) () =
  let engine = Engine.create () in
  let rng = Rng.create 5 in
  let net =
    Types.Net.create ~engine ~rng ~n:(1 lsl p)
      ~delay:(Ocube_net.Network.Constant 1.0) ()
  in
  let entered = ref [] and exited = ref [] in
  let algo = ref None in
  let callbacks =
    {
      Types.on_enter =
        (fun i ->
          entered := i :: !entered;
          (* Hold the CS for 2 time units, then release ourselves. *)
          ignore
            (Types.Net.set_timer net ~node:i ~delay:2.0 (fun () ->
                 Opencube_algo.release_cs (Option.get !algo) i)));
      on_exit = (fun i -> exited := i :: !exited);
    }
  in
  let a =
    Opencube_algo.create ~net ~callbacks
      ~config:
        { (Opencube_algo.default_config ~p) with fault_tolerance = false }
  in
  algo := Some a;
  { engine; net; algo = a; entered; exited }

let test_direct_single_request () =
  let s = make_sys () in
  Opencube_algo.request_cs s.algo 5;
  Engine.run s.engine;
  Alcotest.(check (list int)) "entered" [ 5 ] !(s.entered);
  Alcotest.(check (list int)) "exited" [ 5 ] !(s.exited)

let test_internal_wish_queue () =
  (* request_cs while the node is already asking: the algorithm's own
     wish queue (not the runner's backlog) must serialize them. *)
  let s = make_sys () in
  Opencube_algo.request_cs s.algo 5;
  Opencube_algo.request_cs s.algo 5;
  Opencube_algo.request_cs s.algo 5;
  Engine.run s.engine;
  checki "three entries" 3 (List.length !(s.entered));
  checkb "all by node 5" true (List.for_all (fun i -> i = 5) !(s.entered));
  match Opencube_algo.invariant_check s.algo with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariant: %s" m

let test_release_without_cs_rejected () =
  let s = make_sys () in
  Alcotest.check_raises "not in CS"
    (Invalid_argument "Opencube_algo.release_cs: node 3 not in CS") (fun () ->
      Opencube_algo.release_cs s.algo 3)

let test_create_size_mismatch_rejected () =
  let engine = Engine.create () in
  let net =
    Types.Net.create ~engine ~rng:(Rng.create 1) ~n:10
      ~delay:(Ocube_net.Network.Constant 1.0) ()
  in
  checkb "mismatch rejected" true
    (try
       ignore
         (Opencube_algo.create ~net ~callbacks:Types.null_callbacks
            ~config:(Opencube_algo.default_config ~p:3));
       false
     with Invalid_argument _ -> true)

let test_concurrent_requests_direct () =
  let s = make_sys ~p:4 () in
  List.iter (Opencube_algo.request_cs s.algo) [ 3; 11; 7; 14; 0 ];
  Engine.run s.engine;
  checki "five entries" 5 (List.length !(s.entered));
  (* Mutual exclusion: enters and exits must strictly alternate in time -
     the k-th exit precedes the (k+1)-th entry. We verify via counts per
     callback ordering: entered and exited both have 5 elements, and the
     algorithm-level invariant holds. *)
  checki "five exits" 5 (List.length !(s.exited));
  match Opencube_algo.check_opencube s.algo with
  | Ok () -> ()
  | Error m -> Alcotest.failf "structure: %s" m

(* --- protocol types -------------------------------------------------------- *)

let test_message_pp () =
  let open Types in
  let s m = Format.asprintf "%a" Message.pp m in
  checkb "request pp" true
    (Tutil.contains
       (s (Message.Request { origin = 3; rid = { source = 3; seq = 7 } }))
       "request(origin=3, rid=3#7)");
  checkb "token nil pp" true
    (Tutil.contains (s (Message.Token { lender = None; rid = None })) "lender=nil");
  checkb "test pp" true (Tutil.contains (s (Message.Test { d = 2 })) "test(2)");
  checkb "census pp" true (Tutil.contains (s (Message.Census { round = 1 })) "census(1)")

let test_message_categories () =
  let open Types in
  Alcotest.(check string) "request" "request"
    (Message.category (Message.Request { origin = 0; rid = { source = 0; seq = 0 } }));
  Alcotest.(check string) "token" "token"
    (Message.category (Message.Token { lender = None; rid = None }));
  Alcotest.(check string) "sk maps to request" "request"
    (Message.category (Message.Sk_request { origin = 1; seq = 2 }));
  Alcotest.(check string) "sk privilege maps to token" "token"
    (Message.category (Message.Sk_privilege { queue = []; ln = [| 0 |] }))

(* The network counts messages by [category_index], so every constructor
   must land inside [category_names], on the label it has always had, and
   no label may appear twice (the by-category report keys on it). *)
let test_category_index_covers_every_constructor () =
  let open Types in
  let rid = { source = 2; seq = 5 } in
  let expected =
    [
      (Message.Request { origin = 1; rid }, "request");
      (Message.Token { lender = Some 1; rid = Some rid }, "token");
      (Message.Enquiry { rid }, "enquiry");
      (Message.Enquiry_answer { rid; answer = In_cs }, "enquiry_answer");
      (Message.Test { d = 1 }, "test");
      (Message.Test_answer { d = 1; answer = Try_later }, "test_answer");
      (Message.Anomaly { rid }, "anomaly");
      (Message.Void { rid }, "void");
      (Message.Census { round = 1 }, "census");
      (Message.Census_reply { round = 1; reply = Token_exists }, "census_reply");
      (Message.Custody { rid }, "custody");
      (Message.Custody_answer { rid; held = false }, "custody_answer");
      (Message.Release, "release");
      (Message.Sk_request { origin = 1; seq = 1 }, "request");
      (Message.Sk_privilege { queue = []; ln = [| 0 |] }, "token");
      (Message.Ra_request { origin = 1; clock = 1 }, "request");
      (Message.Ra_reply, "reply");
    ]
  in
  let names = Message.category_names in
  List.iter
    (fun (m, cat) ->
      let i = Message.category_index m in
      checkb (cat ^ ": index within category_names") true
        (i >= 0 && i < Array.length names);
      Alcotest.(check string) (cat ^ ": label") cat names.(i);
      Alcotest.(check string) (cat ^ ": category") cat (Message.category m))
    expected;
  checki "labels are distinct" (Array.length names)
    (List.length (List.sort_uniq String.compare (Array.to_list names)))

let test_fault_overhead_classification () =
  let open Types in
  checkb "test is overhead" true
    (Message.is_fault_overhead (Message.Test { d = 1 }));
  checkb "census is overhead" true
    (Message.is_fault_overhead (Message.Census { round = 1 }));
  let rid = { source = 0; seq = 0 } in
  checkb "custody query is overhead" true
    (Message.is_fault_overhead (Message.Custody { rid }));
  checkb "custody answer is overhead" true
    (Message.is_fault_overhead (Message.Custody_answer { rid; held = true }));
  List.iter
    (fun cat ->
      checkb (cat ^ " category is overhead") true
        (Message.is_fault_overhead_category cat))
    [ "custody"; "custody_answer"; "enquiry"; "test" ];
  checkb "request category is not" false
    (Message.is_fault_overhead_category "request");
  checkb "request is not" false
    (Message.is_fault_overhead
       (Message.Request { origin = 0; rid = { source = 0; seq = 0 } }));
  checkb "token is not" false
    (Message.is_fault_overhead (Message.Token { lender = None; rid = None }))

(* --- qcheck: random serial schedules through the public API ---------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:60
      ~name:"random serial schedules: bound, structure, invariants"
      (pair (int_range 2 5) (list_of_size (Gen.int_range 1 25) (int_range 0 10_000)))
      (fun (p, picks) ->
        let n = 1 lsl p in
        let env =
          Runner.make_env ~seed:7 ~n ~delay:(Ocube_net.Network.Constant 1.0)
            ~cs:(Runner.Fixed 1.0) ()
        in
        let algo =
          Opencube_algo.create ~net:(Runner.net env)
            ~callbacks:(Runner.callbacks env)
            ~config:
              { (Opencube_algo.default_config ~p) with fault_tolerance = false }
        in
        Runner.attach env (Opencube_algo.instance algo);
        List.for_all
          (fun pick ->
            let node = pick mod n in
            let before = Runner.messages_sent env in
            Runner.submit env node;
            Runner.run_to_quiescence env;
            let used = Runner.messages_sent env - before in
            used <= p + 2
            && Opencube_algo.invariant_check algo = Ok ()
            && Opencube_algo.check_opencube algo = Ok ())
          picks);
    Test.make ~count:40
      ~name:"random concurrent bursts: all served, no violation"
      (pair (int_range 2 4)
         (list_of_size (Gen.int_range 1 12) (int_range 0 10_000)))
      (fun (p, picks) ->
        let n = 1 lsl p in
        let env =
          Runner.make_env ~seed:13 ~n ~delay:(Ocube_net.Network.Constant 1.0)
            ~cs:(Runner.Fixed 0.5) ()
        in
        let algo =
          Opencube_algo.create ~net:(Runner.net env)
            ~callbacks:(Runner.callbacks env)
            ~config:
              { (Opencube_algo.default_config ~p) with fault_tolerance = false }
        in
        Runner.attach env (Opencube_algo.instance algo);
        List.iter (fun pick -> Runner.submit env (pick mod n)) picks;
        Runner.run_to_quiescence env;
        Runner.violations env = 0
        && Runner.outstanding env = 0
        && Opencube_algo.check_opencube algo = Ok ());
  ]

(* --- stress ---------------------------------------------------------------- *)

let test_stress_256_nodes () =
  (* 256 nodes, thousands of requests, failures with recovery: the
     implementation holds up at the paper's upper evaluation scale x4. *)
  let p = 8 in
  let n = 1 lsl p in
  let env =
    Runner.make_env ~seed:3 ~n ~delay:(Ocube_net.Network.Constant 1.0)
      ~cs:(Runner.Fixed 0.5) ()
  in
  let algo =
    Opencube_algo.create ~net:(Runner.net env)
      ~callbacks:(Runner.callbacks env)
      ~config:(Opencube_algo.default_config ~p)
  in
  Runner.attach env (Opencube_algo.instance algo);
  let arrivals =
    Runner.Arrivals.poisson ~rng:(Runner.rng env) ~n
      ~rate_per_node:(0.1 /. float_of_int n) ~horizon:40_000.0
  in
  Runner.run_arrivals env arrivals;
  let faults =
    Runner.Faults.random ~rng:(Runner.rng env) ~n ~count:10 ~start:2_000.0
      ~spacing:3_000.0 ~recover_after:(Some 500.0) ()
  in
  Runner.schedule_faults env faults;
  Runner.run_to_quiescence ~max_steps:30_000_000 env;
  checki "violations" 0 (Runner.violations env);
  checki "outstanding" 0 (Runner.outstanding env);
  checkb "thousands of entries" true (Runner.cs_entries env > 3000)

let suite =
  [
    Alcotest.test_case "direct API: single request" `Quick
      test_direct_single_request;
    Alcotest.test_case "direct API: internal wish queue" `Quick
      test_internal_wish_queue;
    Alcotest.test_case "direct API: bad release rejected" `Quick
      test_release_without_cs_rejected;
    Alcotest.test_case "direct API: size mismatch rejected" `Quick
      test_create_size_mismatch_rejected;
    Alcotest.test_case "direct API: concurrent requests" `Quick
      test_concurrent_requests_direct;
    Alcotest.test_case "message pretty-printing" `Quick test_message_pp;
    Alcotest.test_case "message categories" `Quick test_message_categories;
    Alcotest.test_case "fault-overhead classification" `Quick
      test_fault_overhead_classification;
    Alcotest.test_case "stress: 256 nodes with failures" `Slow
      test_stress_256_nodes;
  ]
  @ List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qcheck_tests
  @ [
      Alcotest.test_case "category_index covers every constructor" `Quick
        test_category_index_covers_every_constructor;
    ]
