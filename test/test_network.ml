(* Tests for the network substrate: delivery, delays, ordering, failures,
   incarnations, timers, accounting. *)

module Engine = Ocube_sim.Engine
module Rng = Ocube_sim.Rng

module P = struct
  type t = Ping of int | Pong

  let pp ppf = function
    | Ping k -> Format.fprintf ppf "ping(%d)" k
    | Pong -> Format.pp_print_string ppf "pong"

  (* Listed out of name order: [sent_by_category] must still sort. *)
  let category_names = [| "pong"; "ping" |]

  let category_index = function Ping _ -> 1 | Pong -> 0
end

module Net = Ocube_net.Network.Make (P)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let make ?(n = 4) ?(delay = Ocube_net.Network.Constant 1.0) ?(seed = 1) () =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let net = Net.create ~engine ~rng ~n ~delay () in
  (engine, net)

let test_basic_delivery () =
  let engine, net = make () in
  let received = ref [] in
  for i = 0 to 3 do
    Net.set_handler net i (fun ~src payload -> received := (i, src, payload) :: !received)
  done;
  Net.send net ~src:0 ~dst:2 (P.Ping 7);
  Engine.run engine;
  (match !received with
  | [ (2, 0, P.Ping 7) ] -> ()
  | _ -> Alcotest.fail "wrong delivery");
  checkf "took delta" 1.0 (Engine.now engine);
  checki "sent" 1 (Net.sent_total net);
  checki "delivered" 1 (Net.delivered_total net)

let test_constant_delay_fifo () =
  let engine, net = make () in
  let order = ref [] in
  Net.set_handler net 1 (fun ~src:_ -> function
    | P.Ping k -> order := k :: !order
    | P.Pong -> ());
  for k = 1 to 5 do
    Net.send net ~src:0 ~dst:1 (P.Ping k)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "constant delay preserves order" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_uniform_delay_can_reorder () =
  (* With uniform delays, some seed must reorder two messages. *)
  let reordered = ref false in
  let seed = ref 0 in
  while (not !reordered) && !seed < 50 do
    incr seed;
    let engine, net =
      make ~delay:(Ocube_net.Network.Uniform { lo = 0.1; hi = 5.0 }) ~seed:!seed ()
    in
    let order = ref [] in
    Net.set_handler net 1 (fun ~src:_ -> function
      | P.Ping k -> order := k :: !order
      | P.Pong -> ());
    Net.send net ~src:0 ~dst:1 (P.Ping 1);
    Net.send net ~src:0 ~dst:1 (P.Ping 2);
    Engine.run engine;
    if List.rev !order = [ 2; 1 ] then reordered := true
  done;
  checkb "observed reordering under some seed" true !reordered

let test_delay_bounded_by_delta () =
  let engine, net =
    make ~delay:(Ocube_net.Network.Exponential { mean = 1.0; cap = 3.0 }) ()
  in
  Net.set_handler net 1 (fun ~src:_ _ -> ());
  checkf "delta" 3.0 (Net.delta net);
  for _ = 1 to 200 do
    let t0 = Engine.now engine in
    Net.send net ~src:0 ~dst:1 P.Pong;
    Engine.run engine;
    checkb "within delta" true (Engine.now engine -. t0 <= 3.0 +. 1e-9)
  done

let test_uniform_delays_within_bounds () =
  let engine, net =
    make ~delay:(Ocube_net.Network.Uniform { lo = 0.5; hi = 2.5 }) ()
  in
  Net.set_handler net 1 (fun ~src:_ _ -> ());
  checkf "delta is hi" 2.5 (Net.delta net);
  for _ = 1 to 200 do
    let t0 = Engine.now engine in
    Net.send net ~src:0 ~dst:1 P.Pong;
    Engine.run engine;
    let d = Engine.now engine -. t0 in
    checkb "at least lo" true (d >= 0.5 -. 1e-9);
    checkb "at most hi" true (d <= 2.5 +. 1e-9)
  done

let test_send_to_failed_is_dropped () =
  let engine, net = make () in
  let received = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ -> incr received);
  Net.fail net 1;
  Net.send net ~src:0 ~dst:1 P.Pong;
  Engine.run engine;
  checki "nothing delivered" 0 !received;
  checki "dropped" 1 (Net.dropped_total net)

let test_in_transit_lost_on_failure () =
  let engine, net = make () in
  let received = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ -> incr received);
  Net.send net ~src:0 ~dst:1 P.Pong;
  (* Fail node 1 before the message arrives. *)
  ignore (Engine.schedule engine ~delay:0.5 (fun () -> Net.fail net 1));
  Engine.run engine;
  checki "in-transit message lost" 0 !received

let test_message_across_incarnations_lost () =
  let engine, net = make () in
  let received = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ -> incr received);
  Net.send net ~src:0 ~dst:1 P.Pong;
  (* Fail and recover within the transit window: the old message must not
     be delivered to the new incarnation. *)
  ignore (Engine.schedule engine ~delay:0.2 (fun () -> Net.fail net 1));
  ignore (Engine.schedule engine ~delay:0.4 (fun () -> Net.recover net 1));
  Engine.run engine;
  checki "message from the past life lost" 0 !received;
  checki "incarnation" 2 (Net.incarnation net 1)

let test_send_from_failed_rejected () =
  let _, net = make () in
  Net.fail net 0;
  Alcotest.check_raises "failed node cannot send"
    (Invalid_argument "Network.send: node 0 is failed and cannot send")
    (fun () -> Net.send net ~src:0 ~dst:1 P.Pong)

let test_timer_guarded_by_failure () =
  let engine, net = make () in
  let fired = ref 0 in
  ignore (Net.set_timer net ~node:1 ~delay:1.0 (fun () -> incr fired));
  Net.fail net 1;
  Engine.run engine;
  checki "timer of failed node suppressed" 0 !fired

let test_timer_guarded_by_incarnation () =
  let engine, net = make () in
  let fired = ref 0 in
  ignore (Net.set_timer net ~node:1 ~delay:1.0 (fun () -> incr fired));
  Net.fail net 1;
  Net.recover net 1;
  Engine.run engine;
  checki "timer from previous incarnation suppressed" 0 !fired

let test_timer_cancel () =
  let engine, net = make () in
  let fired = ref 0 in
  let timer = Net.set_timer net ~node:1 ~delay:1.0 (fun () -> incr fired) in
  Net.cancel_timer net timer;
  Engine.run engine;
  checki "cancelled" 0 !fired

let test_alive_nodes_and_recover () =
  let _, net = make () in
  Net.fail net 2;
  Alcotest.(check (list int)) "alive" [ 0; 1; 3 ] (Net.alive_nodes net);
  checkb "is_failed" true (Net.is_failed net 2);
  Net.recover net 2;
  Alcotest.(check (list int)) "all alive" [ 0; 1; 2; 3 ] (Net.alive_nodes net);
  Alcotest.check_raises "recover up node"
    (Invalid_argument "Network.recover: node is not failed") (fun () ->
      Net.recover net 2)

let test_category_accounting () =
  let engine, net = make () in
  Net.set_handler net 1 (fun ~src:_ _ -> ());
  Net.send net ~src:0 ~dst:1 (P.Ping 1);
  Net.send net ~src:0 ~dst:1 (P.Ping 2);
  Net.send net ~src:0 ~dst:1 P.Pong;
  Engine.run engine;
  Alcotest.(check (list (pair string int)))
    "categories"
    [ ("ping", 2); ("pong", 1) ]
    (Net.sent_by_category net);
  Net.reset_counters net;
  checki "reset" 0 (Net.sent_total net)

let test_drop_handler () =
  let engine, net = make () in
  let dropped = ref [] in
  Net.set_drop_handler net (fun ~dst payload -> dropped := (dst, payload) :: !dropped);
  Net.fail net 3;
  Net.send net ~src:0 ~dst:3 (P.Ping 9);
  Engine.run engine;
  match !dropped with
  | [ (3, P.Ping 9) ] -> ()
  | _ -> Alcotest.fail "drop handler not invoked"

let test_delay_model_validation () =
  let engine = Engine.create () in
  let mk delay = ignore (Net.create ~engine ~rng:(Rng.create 1) ~n:2 ~delay ()) in
  Alcotest.check_raises "zero constant"
    (Invalid_argument "Network: delay must be positive") (fun () ->
      mk (Ocube_net.Network.Constant 0.0));
  Alcotest.check_raises "bad uniform"
    (Invalid_argument "Network: bad uniform delay bounds") (fun () ->
      mk (Ocube_net.Network.Uniform { lo = 2.0; hi = 1.0 }));
  Alcotest.check_raises "bad exponential"
    (Invalid_argument "Network: bad exponential delay parameters") (fun () ->
      mk (Ocube_net.Network.Exponential { mean = 2.0; cap = 1.0 }))

let test_delay_bound_function () =
  checkf "constant" 2.0 (Ocube_net.Network.delay_bound (Ocube_net.Network.Constant 2.0));
  checkf "uniform" 5.0
    (Ocube_net.Network.delay_bound (Ocube_net.Network.Uniform { lo = 1.0; hi = 5.0 }));
  checkf "exponential" 9.0
    (Ocube_net.Network.delay_bound
       (Ocube_net.Network.Exponential { mean = 2.0; cap = 9.0 }))

let test_out_of_range_nodes_rejected () =
  let _, net = make () in
  Alcotest.check_raises "bad src" (Invalid_argument "Network: node 9 out of range")
    (fun () -> Net.send net ~src:9 ~dst:0 P.Pong);
  Alcotest.check_raises "bad handler node"
    (Invalid_argument "Network: node -1 out of range") (fun () ->
      Net.set_handler net (-1) (fun ~src:_ _ -> ()))

let test_self_send () =
  let engine, net = make () in
  let got = ref false in
  Net.set_handler net 0 (fun ~src payload ->
      checki "src" 0 src;
      match payload with P.Pong -> got := true | _ -> ());
  Net.send net ~src:0 ~dst:0 P.Pong;
  Engine.run engine;
  checkb "self delivery" true !got

let suite =
  [
    Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
    Alcotest.test_case "constant delay is FIFO" `Quick test_constant_delay_fifo;
    Alcotest.test_case "uniform delay reorders" `Quick
      test_uniform_delay_can_reorder;
    Alcotest.test_case "delays bounded by delta" `Quick
      test_delay_bounded_by_delta;
    Alcotest.test_case "send to failed node dropped" `Quick
      test_send_to_failed_is_dropped;
    Alcotest.test_case "in-transit messages lost on failure" `Quick
      test_in_transit_lost_on_failure;
    Alcotest.test_case "messages do not cross incarnations" `Quick
      test_message_across_incarnations_lost;
    Alcotest.test_case "failed node cannot send" `Quick
      test_send_from_failed_rejected;
    Alcotest.test_case "timers die with their node" `Quick
      test_timer_guarded_by_failure;
    Alcotest.test_case "timers do not cross incarnations" `Quick
      test_timer_guarded_by_incarnation;
    Alcotest.test_case "timer cancellation" `Quick test_timer_cancel;
    Alcotest.test_case "alive set and recovery" `Quick
      test_alive_nodes_and_recover;
    Alcotest.test_case "per-category accounting" `Quick
      test_category_accounting;
    Alcotest.test_case "drop handler" `Quick test_drop_handler;
    Alcotest.test_case "self send" `Quick test_self_send;
    Alcotest.test_case "delay model validation" `Quick
      test_delay_model_validation;
    Alcotest.test_case "delay_bound" `Quick test_delay_bound_function;
    Alcotest.test_case "uniform delays stay within [lo, hi]" `Quick
      test_uniform_delays_within_bounds;
    Alcotest.test_case "out-of-range nodes rejected" `Quick
      test_out_of_range_nodes_rejected;
  ]
