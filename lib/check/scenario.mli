(** Adversarial simulation scenarios: generation, shrinking, replay.

    A scenario is a fully materialised description of one deterministic
    run — algorithm, cube size, delay and CS models, the exact arrival
    list and fail-stop schedule, and the environment seed that drives
    every remaining random choice (per-message delays, exponential CS
    durations). Two runs of the same scenario are bit-identical.

    Scenarios are generated from the repo's splitmix RNG, so the fuzzer's
    stream is reproducible from a single [--seed]; a failing scenario is
    printed as a one-line script ({!to_string}) that {!of_string} parses
    back for replay, which is how shrunk counterexamples — which
    correspond to no seed — stay replayable. *)

module Network = Ocube_net.Network
module Runner = Ocube_mutex.Runner
module Spec = Ocube_proc.Spec

(** The algorithm catalogue is {!Ocube_proc.Spec}'s; scripts name an
    algorithm with [Spec.name]. *)
type algo = Spec.algo =
  | Opencube
  | Raymond
  | Naimi_trehel
  | Central
  | Suzuki_kasami
  | Ricart_agrawala

val all_algos : algo list
(** [Spec.all], kept for the benchmark harness in [perfbench/]. *)

val algo_name : algo -> string
(** [Spec.name], kept for the benchmark harness in [perfbench/]. *)

type runtime =
  | Des  (** the deterministic discrete-event simulator *)
  | Proc  (** forked Unix processes over sockets, faults are real SIGKILL *)

val runtime_name : runtime -> string

val runtime_of_name : string -> runtime option

type t = {
  runtime : runtime;
  algo : algo;
  p : int;  (** cube dimension: [n = 2^p] nodes *)
  seed : int;  (** environment seed: delays, exponential CS durations *)
  delay : Network.delay_model;
  cs : Runner.cs_model;
  ft : bool;  (** open-cube only: arm the Section 5 fault machinery *)
  patience : float;  (** open-cube only: asker-patience multiplier *)
  lifo : bool;  (** open-cube only: deliberately unfair queue policy *)
  serial : bool;
      (** arrivals are spaced so each request completes before the next is
          issued — the paper's per-request message bound applies *)
  arrivals : (float * int) list;
  faults : (float * int * float option) list;
      (** [(at, node, recover_after)] fail-stop events *)
}

val nodes : t -> int

val params : t -> Spec.params
(** The construction parameters [Spec.Build] takes for this scenario. *)

(** {1 Generation} *)

type gen_opts = {
  algos : algo list;
  max_p : int;
  with_faults : bool;  (** allow fault schedules (open-cube scenarios only) *)
  runtime : runtime;
      (** [Proc] scenarios are clamped to small cubes and short workloads
          (every run forks [2^p] real processes) and their faults never
          recover — a SIGKILLed process stays dead *)
}

val default_opts : gen_opts

val generate : rng:Ocube_sim.Rng.t -> opts:gen_opts -> t
(** Draw one scenario. Deterministic in the RNG state. Fault schedules are
    only attached to open-cube scenarios (the five baselines are not
    fault-tolerant); serial scenarios get [ft = false] so that ill-founded
    suspicions cannot inflate the message count. *)

val of_index : fuzz_seed:int -> index:int -> opts:gen_opts -> t
(** The [index]-th scenario of the fuzzer stream for [--seed fuzz_seed]. *)

(** {1 Shrinking} *)

val shrink_candidates : t -> t list
(** Strictly simpler variants, most aggressive first: fewer arrivals
    (chunk then single removal), fewer faults, no recovery, constant
    delays, fixed CS, default patience/queue, a smaller cube with node ids
    remapped. The fuzzer keeps any candidate that still fails and iterates
    to a fixpoint. *)

(** {1 Replay scripts} *)

val to_string : t -> string
(** One-line, space-separated [key=value] script; floats are printed with
    17 significant digits so parsing is exact. *)

val of_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit

val validate : t -> (unit, string) result
(** Range checks (node ids, p, positive times) for hand-written scripts. *)
