(** Runtime-agnostic algorithm construction.

    One spec value builds the same automaton in either runtime:
    [Build (Runtime.Sim)] for the simulator, [Build (Proc_runtime)]
    inside a cluster child. It is also the algorithm catalogue: the
    fuzzer's scenarios name their algorithm with {!algo} and its builder
    ([Ocube_check.Fuzz.build]) calls [Build (Runtime.Sim)], so a fuzz
    scenario and its process replay run identical protocol instances. *)

type algo =
  | Opencube
  | Raymond
  | Naimi_trehel
  | Central
  | Suzuki_kasami
  | Ricart_agrawala

val all : algo list

val name : algo -> string

val of_name : string -> algo option

type params = {
  p : int;  (** dimension: [n = 2^p] nodes *)
  ft : bool;  (** arm the open-cube fault-tolerance machinery *)
  patience : float;  (** asker-timeout multiplier (opencube) *)
  lifo : bool;  (** unfair waiting-queue ablation (opencube) *)
}

val default_params : p:int -> params
(** Fault tolerance off, patience 1.0, FIFO. *)

val fault_tolerant : algo -> bool
(** Whether the algorithm survives crash faults (only the open-cube
    algorithm does); kill schedules demand a fault-tolerant spec. *)

val opencube_config : params -> Ocube_mutex.Opencube_algo.config
(** The open-cube configuration [Build] uses: the core's
    [default_config] with [ft], [patience] and [lifo] applied. *)

module Build (R : Ocube_mutex.Runtime.S) : sig
  val build :
    algo ->
    params:params ->
    net:R.t ->
    callbacks:Ocube_mutex.Types.callbacks ->
    Ocube_mutex.Types.instance
  (** @raise Invalid_argument if [R.size net <> 2^p]. *)
end
