(** Exhaustive state-space exploration of the shipped open-cube core
    ({!Machine}).

    Breadth-first search over every reachable state of the protocol for
    a given cube size and per-node wish budget — optionally with
    fail-stop crash faults ([~max_faults]) and a seeded-bug variant
    ([~variant]) — checking {!Machine.check_invariants} on every state
    and {!Machine.check_terminal} on every terminal state. This is
    bounded model checking of the code that runs: safety (mutual
    exclusion, single token) and liveness (no deadlock: every terminal
    state has all wishes served) over {e all} message interleavings, not
    just sampled schedules.

    With [~symmetry] the search runs in the quotient under the open
    cube's automorphism group ({!Symmetry}): every successor key is
    canonicalized before the visited-set probe, so one representative
    per orbit is stored and expanded. The protocol's dynamics and checks
    commute with every automorphism, so a violation exists in the
    quotient iff one exists in the full space; counterexamples are
    mapped back to concrete node ids before being reported.

    With [~mem_budget] the next-level frontier spills to front-coded
    temp-file segments ({!Spill}) whenever its in-memory run exceeds the
    byte budget, and is streamed back level-synchronously. Temp files
    are removed on normal exit and on raised violations alike. *)

type stats = {
  states : int;
      (** distinct reachable states — orbit representatives (the
          quotient count) when symmetry is on *)
  transitions : int;
  terminals : int;  (** all verified quiescent-and-served *)
  max_in_flight : int;  (** peak concurrent messages *)
  max_depth : int;  (** longest shortest-path from the initial state *)
  orbit_states : int;
      (** sum of the orbit sizes of the visited representatives: an
          upper bound on (and without symmetry, equal to) the raw
          reachable-state count — the reachable set need not be closed
          under the group, so orbits may overcount *)
  spilled_segments : int;  (** frontier segments written to disk *)
  spilled_bytes : int;  (** total front-coded bytes spilled *)
}

type violation = {
  message : string;
  state : Machine.state;  (** the offending state, in concrete node ids *)
  trace : Machine.transition list;
      (** transition labels from the initial state to [state] along the
          BFS tree, in concrete node ids: [replay]ing them reproduces
          the violation *)
}

exception Violation of violation
(** Raised the moment any state fails an invariant (or a terminal state
    fails the terminal conditions). *)

val run :
  ?max_states:int ->
  ?jobs:int ->
  ?max_faults:int ->
  ?variant:Machine.variant ->
  ?symmetry:bool ->
  ?mem_budget:int ->
  p:int ->
  wishes:int ->
  unit ->
  stats
(** Explore exhaustively. With [jobs > 1] (default 1) the search runs as
    a level-synchronous parallel BFS over a pool of OCaml domains; the
    visited set is sharded by key hash over a fixed shard count, so the
    resulting {!stats} — and any {!Violation}, including its trace — are
    identical at every [jobs] width. [~symmetry] (default off) explores
    the automorphism quotient; [~mem_budget] (bytes) bounds the
    in-memory frontier, spilling the excess to temp files. Both engage
    the level-synchronous engine even at [jobs = 1]; apart from the
    [spilled_*] counters, stats are identical with and without a budget.
    @raise Violation on any invariant failure.
    @raise Failure if the state space exceeds [max_states]
    (default 5_000_000). *)

val replay :
  ?max_faults:int ->
  ?variant:Machine.variant ->
  p:int ->
  wishes:int ->
  Machine.transition list ->
  Machine.state
(** Re-execute a reported trace from the initial state, following the
    labelled transition at each step. Raises [Failure] if a label is
    not enabled — which the test suite uses to prove reported traces
    are real executions. *)

val pp_trace : Format.formatter -> Machine.transition list -> unit
(** Semicolon-separated one-liner, e.g.
    [wish 1; deliver 1->0 req(1,1#0); crash 3]. *)
