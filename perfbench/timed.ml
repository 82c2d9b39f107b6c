(* A timing wrapper around the simulator runtime. Every effect a protocol
   core performs goes through Runtime.S, so wrapping it from outside gives
   per-layer wall times without touching the program: protocol handler and
   timer-callback self time (their nested sends and timer arms are charged
   to those layers instead), send time including the engine schedule, and
   timer-arm time. Each sent message is also put through the wire codec,
   timed apart and excluded from every other layer.

   The wrapper only observes: the events, messages and entries of a run
   are the same with and without it (checked by the benchmark's tests). *)

module Sim = Ocube_mutex.Runtime.Sim
module Wire = Ocube_mutex.Wire

type t = Sim.t

type timer = Sim.timer

type counters = {
  mutable handler_s : float;
  mutable handler_calls : int;
  mutable timer_cb_s : float;
  mutable timer_cb_calls : int;
  mutable send_s : float;
  mutable sends : int;
  mutable arm_s : float;
  mutable arms : int;
  mutable cancels : int;
  mutable encode_s : float;
  mutable decode_s : float;
  mutable wire_bytes : int;
}

let c =
  {
    handler_s = 0.0;
    handler_calls = 0;
    timer_cb_s = 0.0;
    timer_cb_calls = 0;
    send_s = 0.0;
    sends = 0;
    arm_s = 0.0;
    arms = 0;
    cancels = 0;
    encode_s = 0.0;
    decode_s = 0.0;
    wire_bytes = 0;
  }

let reset () =
  c.handler_s <- 0.0;
  c.handler_calls <- 0;
  c.timer_cb_s <- 0.0;
  c.timer_cb_calls <- 0;
  c.send_s <- 0.0;
  c.sends <- 0;
  c.arm_s <- 0.0;
  c.arms <- 0;
  c.cancels <- 0;
  c.encode_s <- 0.0;
  c.decode_s <- 0.0;
  c.wire_bytes <- 0

(* Total of everything the wrapper timed: what the traced run's dispatch
   remainder is computed against. *)
let timed_total () =
  c.handler_s +. c.timer_cb_s +. c.send_s +. c.arm_s +. c.encode_s
  +. c.decode_s

let clock = Unix.gettimeofday

(* Time already charged to timed callees of the frame being measured. *)
let child = ref 0.0

(* Run [f] as a self-timed frame; returns its self time. *)
let self_timed f =
  let saved = !child in
  child := 0.0;
  let t0 = clock () in
  f ();
  let dt = clock () -. t0 in
  let self = dt -. !child in
  child := saved +. dt;
  self

let size = Sim.size

let delta = Sim.delta

let now = Sim.now

let is_failed = Sim.is_failed

let incarnation = Sim.incarnation

let set_drop_handler = Sim.set_drop_handler

let measure_wire msg =
  let t0 = clock () in
  let bytes = Wire.encode msg in
  let t1 = clock () in
  let back = Wire.decode bytes in
  let t2 = clock () in
  (* the round trip must be lossless on every message the run sends *)
  if not (String.equal (Wire.encode back) bytes) then
    failwith "wire: encode/decode round trip changed a message";
  c.encode_s <- c.encode_s +. (t1 -. t0);
  c.decode_s <- c.decode_s +. (t2 -. t1);
  c.wire_bytes <- c.wire_bytes + String.length bytes;
  child := !child +. (t2 -. t0)

let send t ~src ~dst msg =
  measure_wire msg;
  let t0 = clock () in
  Sim.send t ~src ~dst msg;
  let dt = clock () -. t0 in
  c.send_s <- c.send_s +. dt;
  c.sends <- c.sends + 1;
  child := !child +. dt

(* A protocol-code frame: handler self time. *)
let protocol f =
  let self = self_timed f in
  c.handler_s <- c.handler_s +. self;
  c.handler_calls <- c.handler_calls + 1

let set_handler t i h = Sim.set_handler t i (fun ~src msg -> protocol (fun () -> h ~src msg))

let set_default_handler t h =
  Sim.set_default_handler t (fun ~dst ~src msg -> protocol (fun () -> h ~dst ~src msg))

let set_timer t ~node ~delay f =
  let cb () =
    let self = self_timed f in
    c.timer_cb_s <- c.timer_cb_s +. self;
    c.timer_cb_calls <- c.timer_cb_calls + 1
  in
  let t0 = clock () in
  let tm = Sim.set_timer t ~node ~delay cb in
  let dt = clock () -. t0 in
  c.arm_s <- c.arm_s +. dt;
  c.arms <- c.arms + 1;
  child := !child +. dt;
  tm

let cancel_timer t tm =
  c.cancels <- c.cancels + 1;
  Sim.cancel_timer t tm

let wrap_instance (i : Ocube_mutex.Types.instance) =
  {
    i with
    request_cs = (fun n -> protocol (fun () -> i.request_cs n));
    release_cs = (fun n -> protocol (fun () -> i.release_cs n));
    on_recovered = (fun n -> protocol (fun () -> i.on_recovered n));
  }
