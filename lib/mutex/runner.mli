(** Experiment runner: binds an algorithm instance to a simulated network,
    drives workloads and failure schedules, and collects metrics.

    Usage pattern:
    {[
      let env = Runner.make_env ~seed:1 ~n:16 ~delay:(Constant 1.0)
                  ~cs:(Runner.Fixed 5.0) () in
      let algo = Opencube_algo.create ~net:(Runner.net env)
                   ~callbacks:(Runner.callbacks env)
                   ~config:(Opencube_algo.default_config ~p:4) in
      Runner.attach env (Opencube_algo.instance algo);
      Runner.run_arrivals env (Arrivals.poisson ~rng ... );
      Runner.run_to_quiescence env;
      assert (Runner.violations env = 0)
    ]}

    The runner owns critical-section durations: when an algorithm reports
    entry ([on_enter]) the runner samples a duration and schedules the
    release. A node gets at most one outstanding wish at a time; wishes
    arriving while one is outstanding are counted as backlog and re-issued
    after the current one completes (closed-loop per node). *)

open Types
module Arrivals = Ocube_workload.Arrivals
module Faults = Ocube_workload.Faults

(** Critical-section duration model. *)
type cs_model =
  | Fixed of float
  | Exponential of { mean : float; cap : float }

type env

val make_env :
  seed:int ->
  n:int ->
  delay:Ocube_net.Network.delay_model ->
  cs:cs_model ->
  ?trace:bool ->
  ?metrics:bool ->
  unit ->
  env
(** Fresh engine, RNG and network. With [~trace:true] the runner keeps
    the structured record of {!trace}. With [~metrics:true] it drives an
    {!Ocube_obs.Recorder}: the request metrics (wishes, entries,
    per-source message counts, faults, hop and wait histograms, an
    event-queue watermark gauge) and a span per request from wish to CS
    exit. Both are passive taps — a traced or metrics run is
    event-for-event identical to a plain one. *)

val net : env -> Net.t

val engine : env -> Ocube_sim.Engine.t

val rng : env -> Ocube_sim.Rng.t
(** A dedicated workload RNG split from the environment seed. *)

val callbacks : env -> callbacks
(** Pass to the algorithm's [create]. *)

val attach : env -> instance -> unit
(** Must be called exactly once, after the algorithm is created. *)

(** {1 The structured record} *)

type step =
  | Wish
  | Enter
  | Exit
  | Send of { dst : node_id; msg : Message.t }
  | Fault
  | Recover
  | Violation  (** entered its CS while another node was inside *)

type entry = { time : float; node : node_id; step : step }

val trace : env -> entry list
(** Every send (with its message), wish, CS entry and exit, fault,
    recovery and violation of a [~trace:true] env, in order; [[]]
    otherwise. Entries are plain values: nothing is formatted until
    {!pp_entry}, {!render_trace} or {!instants} reads them. *)

val pp_entry : Format.formatter -> entry -> unit
(** ["t=12.00 [3] send: -> 1: request(origin=3, ...)"]. *)

val render_trace : env -> string
(** The record, one {!pp_entry} line per entry. *)

val instants : env -> Ocube_obs.Export.instant list
(** The record as Chrome-trace instants, named by kind ("wish", "cs",
    "send", "fault", "violation") with the rendered detail. *)

(** {1 Observability} *)

val spans : env -> Ocube_obs.Span.t option
(** The request-span table, when the env was built with [~metrics:true]. *)

val metrics_snapshot : env -> Ocube_obs.Metrics.snapshot option
(** Immutable copy of the registry's current state (see
    {!Ocube_obs.Metrics.snapshot}); snapshots from parallel shards merge
    deterministically with {!Ocube_obs.Metrics.merge}. *)

(** {1 Driving} *)

val submit : env -> node_id -> unit
(** Issue a wish now (or add to the node's backlog if one is in flight).
    Wishes on failed nodes are dropped and counted. *)

val run_arrivals : env -> Arrivals.t -> unit
(** Schedule a whole arrival list. *)

val run_source : env -> Ocube_workload.Source.t -> unit
(** Feed an open-loop source: exactly one future arrival is armed at a
    time (the next is pulled when the current fires), so arbitrarily long
    streams cost O(1) queue space. Call before {!run} /
    {!run_to_quiescence}; the run drains the source to its horizon. *)

val schedule_faults : env -> Faults.t -> unit
(** Schedule fail-stop events (and recoveries, which call the instance's
    [on_recovered]). *)

val run : until:float -> env -> unit
(** Run the events up to time [until]; a run to the end goes through
    {!run_to_quiescence} and its watchdog. *)

exception Stalled of string
(** {!run_to_quiescence}'s one-line verdict: ["liveness: no CS entry"], the
    stall, bound and time, then the waiting wishes oldest first as
    [node@wish_time] (8, then ["+k more"]). *)

val run_to_quiescence : env -> unit
(** Run until no event remains. Between chunks of 65,536 events it raises
    {!Stalled} when neither a CS entry nor an input event (a {!submit}, a
    fault, a recovery) has happened for [16·(repair_bound + (N + 2)·δ + c)
    + r] units of virtual time: the instance's [repair_bound], δ the delay
    bound, [c] the CS length (or cap) and [r] the longest recovery delay
    scheduled. *)

val now : env -> float

(** {1 Metrics} *)

val cs_entries : env -> int

val violations : env -> int
(** Simultaneous-CS safety violations observed (must be 0). *)

val wait_stats : env -> Ocube_stats.Summary.t
(** Wish-issue to CS-entry delays of satisfied requests. *)

val wait_samples : env -> float list
(** The individual waiting times, in service order (for percentiles). *)

val issued : env -> int

val abandoned : env -> int
(** Requests lost because their node failed while waiting for the token. *)

val outstanding : env -> int
(** Issued − satisfied − abandoned; 0 at the end of a fault-free run. *)

val messages_sent : env -> int

val messages_by_category : env -> (string * int) list

val fault_overhead_messages : env -> int
(** Messages in the fault-machinery categories, as classified by
    {!Types.Message.is_fault_overhead_category}. *)

val reset_message_counters : env -> unit
