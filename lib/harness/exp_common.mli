(** Shared plumbing for the reproduction experiments.

    Builders return a runner environment with the algorithm attached and
    ready to drive; probe helpers measure exact message costs by running
    one request to quiescence (valid because probes are serial). *)

open Ocube_mutex

type algo_kind =
  | Opencube of { census_rounds : int; fault_tolerance : bool }
  | Raymond of Ocube_topology.Static_tree.shape
  | Naimi_trehel
  | Central
  | Suzuki_kasami  (** broadcast-token baseline (TOCS 1985) *)
  | Ricart_agrawala  (** permission-based baseline (CACM 1981) *)
  | Generic of Generic_scheme.rule

val algo_label : algo_kind -> string

val kind_of_string : string -> (algo_kind, string) result
(** Parse a CLI algorithm name ([opencube], [opencube-paper],
    [opencube-nofault], [raymond], [raymond-path], [raymond-star],
    [naimi-trehel], [central], [suzuki-kasami], [ricart-agrawala],
    [generic-raymond], [generic-transit]); [Error] carries the message. *)

val make :
  ?seed:int ->
  ?delay:Ocube_net.Network.delay_model ->
  ?cs:Runner.cs_model ->
  ?asker_patience:float ->
  ?trace:bool ->
  ?metrics:bool ->
  kind:algo_kind ->
  n:int ->
  unit ->
  Runner.env * Types.instance
(** Fresh environment + attached algorithm over [n] nodes. [n] must be a
    power of two for the open-cube and generic kinds. Default delay:
    [Constant 1.0]; default CS duration: [Fixed 1.0]; default seed 42.
    [asker_patience] is the open cube's (see {!make_opencube}); the other
    kinds ignore it. *)

val make_opencube :
  ?seed:int ->
  ?delay:Ocube_net.Network.delay_model ->
  ?cs:Runner.cs_model ->
  ?census_rounds:int ->
  ?fault_tolerance:bool ->
  ?asker_patience:float ->
  ?queue_policy:Opencube_algo.queue_policy ->
  ?trace:bool ->
  ?metrics:bool ->
  p:int ->
  unit ->
  Runner.env * Opencube_algo.t
(** Like {!make} but keeps the concrete open-cube handle for
    introspection. {!make}'s open-cube kinds build through it. *)

(** The run behind [ocmutex simulate]: Poisson wishes at [rate] per node
    until [horizon], then [failures] fail-stop faults spread evenly over
    the horizon (recovering after [recover] unless it is 0), run to
    quiescence. [algo] is a {!kind_of_string} name. *)
type simulation = {
  algo : string;
  n : int;
  seed : int;
  rate : float;
  horizon : float;
  cs : float;
  failures : int;
  recover : float;
  patience : float;
}

type simulate_error =
  | Invalid_run of string
      (** an unknown algorithm name, or a node count the algorithm cannot
          take: [n >= 1], and a power of two for the open cube, the
          binomial Raymond tree and the generic schemes; checked before
          anything is built *)
  | Stalled of string
      (** the run's progress watchdog stopped it ({!Runner.Stalled}): the
          one-line verdict, then the run's parameters *)

val simulate :
  ?trace:bool ->
  ?metrics:bool ->
  simulation ->
  (Runner.env * Types.instance, simulate_error) result

val probe : Runner.env -> int -> int
(** [probe env node]: issue one wish, run to quiescence, return the number
    of messages it cost. Only meaningful when no other event is pending. *)

val log2i : int -> int
(** Integer log2 (n must be a positive power of two). *)

val alpha : int -> int
(** The paper's Section 4 recurrence: [alpha 1 = 2],
    [alpha (p+1) = 2*alpha p + 3*2^(p-1) + p] — the exact sum of per-node
    request costs from the initial configuration. *)

val average_formula : int -> float
(** The paper's closed-form average: [(3/4)·log2 N + 5/4]. *)
