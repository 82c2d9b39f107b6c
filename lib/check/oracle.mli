(** Runtime invariant oracle.

    Hooks the simulation engine so that after {e every} executed event the
    paper's invariants are re-asserted against the live algorithm instance;
    the first broken invariant aborts the run by raising {!Violation} at the
    exact offending step. End-of-run ({!final}) checks add the properties
    that are only meaningful at quiescence.

    Invariant catalogue (paper mapping in DESIGN.md §8):

    - safety: at most one node in its critical section — continuously, in
      every scenario (Section 3 / Theorem in Section 4);
    - token uniqueness: at most one token holder, and exactly one live
      token, held or in flight — continuously in failure-free runs (the
      algorithms' own [invariant_check], which reads running tallies in
      O(1) so that checking every event costs no per-node scan); a
      transient token loss is legal only while the fault machinery is
      repairing one (Section 5);
    - structure: at quiescence of failure-free open-cube runs the father
      array is an open-cube (Theorem 2.1, Cor. 2.2/2.3) and every branch
      respects [r <= pmax - n1] (Prop. 2.3);
    - message bound: failure-free runs must not exceed an algorithm-specific
      per-request message budget — [log2 N + 2] for serial open-cube runs
      (Section 4; the +2 corner is DESIGN.md §5bis);
    - liveness / bounded starvation: the run keeps making progress until it
      quiesces ({!Ocube_mutex.Runner.run_to_quiescence}'s watchdog raises
      [Runner.Stalled] otherwise), and no request is left waiting at
      quiescence (Section 5). *)

exception Violation of string
(** Raised (out of [Runner.run*] for per-step checks) when an invariant
    breaks. The payload says which invariant and in which state. *)

type spec = {
  fault_free : bool;
      (** the scenario injects no faults: the instance's [invariant_check]
          runs after every event and at quiescence *)
  structure : (unit -> (unit, string) result) option;
      (** quiescence-only structural check (open-cube shape + branch bound) *)
  message_bound : int option;  (** cap on total messages sent *)
}

val install :
  env:Ocube_mutex.Runner.env -> inst:Ocube_mutex.Types.instance -> spec -> unit
(** Arm the per-step checks on the environment's engine. *)

val uninstall : env:Ocube_mutex.Runner.env -> unit

val final :
  env:Ocube_mutex.Runner.env -> inst:Ocube_mutex.Types.instance -> spec -> unit
(** Quiescence checks; raises {!Violation} on failure. *)
