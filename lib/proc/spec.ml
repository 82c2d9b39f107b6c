module Static_tree = Ocube_topology.Static_tree

type algo =
  | Opencube
  | Raymond
  | Naimi_trehel
  | Central
  | Suzuki_kasami
  | Ricart_agrawala

let all =
  [ Opencube; Raymond; Naimi_trehel; Central; Suzuki_kasami; Ricart_agrawala ]

let name = function
  | Opencube -> "opencube"
  | Raymond -> "raymond"
  | Naimi_trehel -> "naimi-trehel"
  | Central -> "central"
  | Suzuki_kasami -> "suzuki-kasami"
  | Ricart_agrawala -> "ricart-agrawala"

let of_name s = List.find_opt (fun a -> String.equal (name a) s) all

type params = { p : int; ft : bool; patience : float; lifo : bool }

let default_params ~p = { p; ft = false; patience = 1.0; lifo = false }

let fault_tolerant = function Opencube -> true | _ -> false

module Opencube_algo = Ocube_mutex.Opencube_algo

let opencube_config params =
  {
    (Opencube_algo.default_config ~p:params.p) with
    fault_tolerance = params.ft;
    asker_patience = params.patience;
    queue_policy =
      (if params.lifo then Opencube_algo.Lifo else Opencube_algo.Fifo);
  }

(* The only construction of the six cores from a spec: the fuzzer's
   builder ([Ocube_check.Fuzz.build]) calls [Build (Runtime.Sim)] and a
   cluster child [Build (Proc_runtime)], so a fuzz scenario and its
   process replay run identical protocol instances. *)
module Build (R : Ocube_mutex.Runtime.S) = struct
  module Open = Opencube_algo.Make (R)
  module Ray = Ocube_mutex.Raymond.Make (R)
  module Nt = Ocube_mutex.Naimi_trehel.Make (R)
  module Cen = Ocube_mutex.Central.Make (R)
  module Sk = Ocube_mutex.Suzuki_kasami.Make (R)
  module Ra = Ocube_mutex.Ricart_agrawala.Make (R)

  let build algo ~(params : params) ~net ~callbacks =
    let n = 1 lsl params.p in
    if R.size net <> n then invalid_arg "Spec.build: runtime size <> 2^p";
    match algo with
    | Opencube ->
      Open.instance
        (Open.create ~net ~callbacks ~config:(opencube_config params))
    | Raymond ->
      let tree = Static_tree.build Static_tree.Binomial ~n in
      Ray.instance (Ray.create ~net ~callbacks ~tree ())
    | Naimi_trehel -> Nt.instance (Nt.create ~net ~callbacks ~n ())
    | Central -> Cen.instance (Cen.create ~net ~callbacks ~n ())
    | Suzuki_kasami -> Sk.instance (Sk.create ~net ~callbacks ~n ())
    | Ricart_agrawala -> Ra.instance (Ra.create ~net ~callbacks ~n ())
end
