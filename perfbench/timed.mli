(** {!Ocube_mutex.Runtime.Sim} with every protocol effect timed from
    outside. Instantiate a protocol core over it ([Opencube_algo.Make
    (Timed)]) to get per-layer wall times of a simulator run. *)

include
  Ocube_mutex.Runtime.S
    with type t = Ocube_mutex.Runtime.Sim.t
     and type timer = Ocube_mutex.Runtime.Sim.timer

type counters = {
  mutable handler_s : float;  (** handler self time *)
  mutable handler_calls : int;
  mutable timer_cb_s : float;  (** timer-callback self time *)
  mutable timer_cb_calls : int;
  mutable send_s : float;  (** [Sim.send], engine schedule included *)
  mutable sends : int;
  mutable arm_s : float;  (** [Sim.set_timer] *)
  mutable arms : int;
  mutable cancels : int;
  mutable encode_s : float;  (** [Wire.encode] of every sent message *)
  mutable decode_s : float;  (** [Wire.decode] of the same bytes *)
  mutable wire_bytes : int;
}

val c : counters
(** Process-wide accumulators (the benchmark is single-domain). *)

val reset : unit -> unit

val protocol : (unit -> unit) -> unit
(** Run protocol code invoked outside a message handler (a wish, a CS
    exit, a recovery) as a handler-layer frame. *)

val wrap_instance : Ocube_mutex.Types.instance -> Ocube_mutex.Types.instance
(** Route an instance's local events through {!protocol}. *)

val timed_total : unit -> float
(** Sum of every timed interval, in seconds. *)
