(** DES↔process differential conformance.

    One {!case} is a crash-free serial workload replayed in both
    runtimes: gap-spaced serial arrivals in the simulator, the
    equivalent {!Cluster.Lockstep} in the process cluster. In serial
    crash-free runs every algorithm is a deterministic function of the
    wish order — timers are dark, delays reorder nothing — so the two
    runs must produce byte-identical per-node send sequences, which
    {!check} asserts by comparing {!Ocube_mutex.Wire.mix} checksums.

    Crashy runs are inherently timing-dependent and are checked against
    the oracle invariants instead (see {!Cluster.oracle_clean} and the
    fuzzer's [--runtime proc] mode). *)

type case = {
  algo : Spec.algo;
  p : int;
  cs : float;  (** fixed CS duration, time units *)
  rounds : int;  (** serial passes over all [2^p] nodes *)
}

val case_name : case -> string

val des_run : case -> Ocube_mutex.Runner.env
(** Run the case in the simulator with the structured record and the
    telemetry recorder on. @raise Failure if the DES run misbehaves. *)

val proc_run : case -> Cluster.outcome
(** Run the case as a process cluster (metrics and spans on).
    @raise Failure if the cluster run is not oracle-clean. *)

val des_digests : case -> string array
(** Per-node send checksums of {!des_run}, folded over its record. *)

val proc_digests : case -> string array
(** Per-node send checksums of {!proc_run}. *)

val check : case -> (unit, string) result
(** Both runs, compared node by node. *)
