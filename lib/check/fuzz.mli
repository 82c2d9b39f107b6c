(** Deterministic adversarial fuzzer for the six mutual-exclusion
    algorithms.

    Each {!Scenario.t} is built into a fresh simulated environment, run to
    quiescence under the {!Oracle}'s per-step invariant hook, and summarised
    as a {!digest}. Replaying a scenario gives a bit-identical digest, which
    is what makes a printed counterexample a real reproducer.

    On a failing scenario the fuzzer greedily shrinks it: every candidate
    from {!Scenario.shrink_candidates} is re-run, any candidate that still
    fails becomes the new current scenario, and the loop stops at a fixpoint
    (or after [max_runs] shrink runs). *)

module Runner = Ocube_mutex.Runner
module Types = Ocube_mutex.Types

type digest = {
  entries : int;
  issued : int;
  messages : int;
  delivered : int;
  dropped : int;
  abandoned : int;
  outstanding : int;
  end_time : float;
  wait_count : int;
  wait_mean : float;  (** [nan] when no request was served *)
  wait_max : float;
}

val pp_digest : Format.formatter -> digest -> unit

val equal_digest : digest -> digest -> bool
(** Exact (bit-level on floats): the replay guarantee. *)

type built = {
  env : Runner.env;
  inst : Types.instance;
  structure : (unit -> (unit, string) result) option;
      (** quiescence-only structural check, when the algorithm has one *)
}

val build : Scenario.t -> built
(** Standard builder: environment + [Spec.Build (Runtime.Sim)] instance
    per the scenario, with {!opencube_structure} as the open cube's
    structural check. Exposed so tests can substitute a sabotaged builder
    and watch the oracle catch the injected bug. *)

val opencube_structure : Types.instance -> unit -> (unit, string) result
(** Open-cube shape (Theorem 2.1) plus the branch bound of Prop. 2.3 on
    the instance's current [snapshot_tree]. *)

val spec_of : Scenario.t -> (unit -> (unit, string) result) option -> Oracle.spec
(** The oracle configuration a scenario warrants: strong token/structure
    invariants and message budgets only in failure-free runs, drain-at-
    quiescence liveness always. *)

val run : ?build:(Scenario.t -> built) -> Scenario.t -> (digest, string) result
(** One full checked run. [Error] carries the violated invariant. *)

val shrink :
  ?build:(Scenario.t -> built) -> ?max_runs:int -> Scenario.t -> Scenario.t
(** Greedy minimisation of a failing scenario (default [max_runs] 500). *)

type failure = {
  index : int;  (** position in the fuzzer stream *)
  scenario : Scenario.t;
  error : string;
  shrunk : Scenario.t;
  shrunk_error : string;
}

type report = {
  ran : int;
  checksum : int;
      (** order-sensitive hash of every digest up to (excluding) the
          failing index — identical at every [jobs] width *)
  failure : failure option;
}

val campaign :
  ?build:(Scenario.t -> built) ->
  ?opts:Scenario.gen_opts ->
  ?iters:int ->
  ?stop:(unit -> bool) ->
  ?on_progress:(int -> unit) ->
  ?jobs:int ->
  fuzz_seed:int ->
  unit ->
  report
(** Run scenarios [0, 1, 2, ...] of the seed's stream until [iters] runs
    complete, [stop ()] turns true (checked between runs; used for
    wall-clock soak budgets), or a scenario fails — which ends the campaign
    with a shrunk reproducer.

    [jobs > 1] stripes scenario indices across a domain pool, one chunk at
    a time; chunk results are folded serially in index order, so the
    [checksum], the failing index (always the stream's smallest) and the
    shrunk reproducer (shrinking stays serial) are bit-identical to the
    serial campaign. Only [ran] may differ when [stop] fires mid-chunk. *)
