(** Local process cluster: one forked child per node, routed through the
    parent over socketpairs, with real [SIGKILL] fault injection.

    The parent is a star-topology message switch: every child's
    {!Ctrl.Send} frame is folded into that node's send checksum and
    forwarded as a {!Ctrl.Deliver} to the destination's socket, without
    decoding the protocol payload. Because each child writes its
    [Enter]/[Exit] events to the same FIFO socket as its sends, parent
    receipt order respects per-node causal order, which makes the merged
    log sound for interval-based mutual-exclusion checking; the shared
    [lockf] witness file gives a second, kernel-enforced detector that
    survives SIGKILL (record locks die with the process).

    Crash injection is fail-stop and permanent: a killed child is
    reaped, its stream drained to EOF (everything it said before dying
    enters the log), its unserved wishes written off as abandoned. *)

type kill =
  | Kill_leader of int
      (** [Kill_leader k]: SIGKILL the node entering its [k]-th (global)
          critical section, at entry — i.e. the token holder, mid-CS. *)
  | Kill_at of { after : float; node : int }
      (** SIGKILL [node] at [after] wall seconds from the start.
          Random and cascading schedules are lists of these (the CLI
          derives targets from a seeded RNG). *)

type workload =
  | Lockstep of { rounds : int }
      (** Nodes wish one at a time in node order, [rounds] passes: the
          serial workload whose send sequences are deterministic — what
          the conformance suite replays. *)
  | Closed_loop of { per_node : int }
      (** Every node runs a closed loop of [per_node] wishes; maximal
          concurrency, the workload for crash runs. *)

type config = {
  algo : Spec.algo;
  params : Spec.params;
  tick : float;  (** real seconds per simulated time unit *)
  delta : float;  (** message-delay bound handed to the protocols *)
  cs : float;  (** critical-section duration, in time units *)
  workload : workload;
  kills : kill list;
  deadline : float;  (** wall-clock budget, seconds; overrun ⇒ undrained *)
  metrics : bool;
}

val max_nodes : int
(** 512: the parent's [select] watches one socket per node, and [select]
    cannot watch descriptors past [FD_SETSIZE] (1024), so the largest
    power of two that leaves room for the parent's own descriptors
    (DESIGN.md §15.2). *)

val dimension : int -> (int, string) result
(** [dimension n] is the cube dimension [p] with [2^p = n] for a cluster
    of [n] nodes, or the one-line error when [n] is not a power of two
    in [2 .. max_nodes]. Nothing is forked. *)

val default_config : algo:Spec.algo -> p:int -> config
(** tick 0.02, delta 1.0, cs 2.0, closed loop of 2, no kills, 30 s
    deadline, metrics on. *)

type event =
  | Ev_wish of int
  | Ev_enter of int
  | Ev_exit of int
  | Ev_send of { src : int; dst : int; category : string }
  | Ev_drop of { src : int; dst : int }  (** routed to a dead node *)
  | Ev_kill of int
  | Ev_dead of int  (** unexpected child death (not a scheduled kill) *)
  | Ev_violation of { node : int; info : string }

val pp_event : Format.formatter -> float * event -> unit
(** One log line: [<t> <kind> <args>] with [t] in wall seconds. *)

type outcome = {
  n : int;
  entries : int;
  wishes : int;
  served : int;
  abandoned : int;  (** wishes written off because their node died *)
  killed : int list;
  violations : (int * string) list;
  drained : bool;
      (** every wish of every surviving node was served in budget *)
  clean_exit : bool;  (** every surviving child exited 0 *)
  digests : string array;
      (** per-node {!Ocube_mutex.Wire.mix_raw} send checksums —
          deterministic for crash-free [Lockstep] runs *)
  events : (float * event) list;  (** the merged log, in receipt order *)
  snapshot : Ocube_obs.Metrics.snapshot option;
      (** the request metrics of {!Ocube_obs.Recorder}, as the simulator
          reports them; [None] unless [config.metrics] *)
  spans : Ocube_obs.Span.span list;
      (** the closed request spans, in close order, times in simulated
          units (wall seconds over the tick); [[]] unless
          [config.metrics] *)
}

val oracle_clean : outcome -> (unit, string) result
(** The invariants a run must satisfy: no violation (overlap in the
    merged log, witness-lock contention, corrupt stream, abnormal child
    exit), drained, clean exits. Mirrors the DES oracle's safety and
    liveness checks on the process side. *)

val write_log : out_channel -> outcome -> unit
(** Dump the merged event log, one {!pp_event} line per event (the CI
    artifact format). *)

val run : config -> outcome
(** Fork the cluster, drive the workload and kill schedule, verify,
    shut down. Always reaps every child before returning.
    @raise Invalid_argument if kills are scheduled for an algorithm
    without fault tolerance (or with [params.ft = false]). *)
