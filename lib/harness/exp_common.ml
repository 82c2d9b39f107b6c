open Ocube_mutex
module Static_tree = Ocube_topology.Static_tree

type algo_kind =
  | Opencube of { census_rounds : int; fault_tolerance : bool }
  | Raymond of Static_tree.shape
  | Naimi_trehel
  | Central
  | Suzuki_kasami
  | Ricart_agrawala
  | Generic of Generic_scheme.rule

let algo_label = function
  | Opencube { fault_tolerance = false; _ } -> "open-cube"
  | Opencube { census_rounds = 0; _ } -> "open-cube/ft-paper"
  | Opencube _ -> "open-cube/ft"
  | Raymond Static_tree.Binomial -> "raymond/binomial"
  | Raymond Static_tree.Path -> "raymond/path"
  | Raymond Static_tree.Star -> "raymond/star"
  | Raymond (Static_tree.Kary k) -> Printf.sprintf "raymond/%d-ary" k
  | Naimi_trehel -> "naimi-trehel"
  | Central -> "central"
  | Suzuki_kasami -> "suzuki-kasami"
  | Ricart_agrawala -> "ricart-agrawala"
  | Generic Generic_scheme.Opencube_rule -> "generic/open-cube"
  | Generic Generic_scheme.Raymond_rule -> "generic/raymond-rule"
  | Generic Generic_scheme.Always_transit -> "generic/always-transit"
  | Generic (Generic_scheme.Custom _) -> "generic/custom"

let kind_of_string = function
  | "opencube" -> Ok (Opencube { census_rounds = 2; fault_tolerance = true })
  | "opencube-paper" -> Ok (Opencube { census_rounds = 0; fault_tolerance = true })
  | "opencube-nofault" ->
    Ok (Opencube { census_rounds = 2; fault_tolerance = false })
  | "raymond" -> Ok (Raymond Static_tree.Binomial)
  | "raymond-path" -> Ok (Raymond Static_tree.Path)
  | "raymond-star" -> Ok (Raymond Static_tree.Star)
  | "naimi-trehel" -> Ok Naimi_trehel
  | "central" -> Ok Central
  | "suzuki-kasami" -> Ok Suzuki_kasami
  | "ricart-agrawala" -> Ok Ricart_agrawala
  | "generic-raymond" -> Ok (Generic Generic_scheme.Raymond_rule)
  | "generic-transit" -> Ok (Generic Generic_scheme.Always_transit)
  | s -> Error (Printf.sprintf "unknown algorithm %S" s)

let log2i n =
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg "log2i: not a power of two";
  let rec go acc m = if m = 1 then acc else go (acc + 1) (m lsr 1) in
  go 0 n

let make_opencube ?(seed = 42) ?(delay = Ocube_net.Network.Constant 1.0)
    ?(cs = Runner.Fixed 1.0) ?(census_rounds = 2) ?(fault_tolerance = true)
    ?(asker_patience = 1.0) ?(queue_policy = Opencube_algo.Fifo)
    ?(trace = false) ?(metrics = false) ~p () =
  let n = 1 lsl p in
  let env = Runner.make_env ~seed ~n ~delay ~cs ~trace ~metrics () in
  let config =
    {
      (Opencube_algo.default_config ~p) with
      census_rounds;
      fault_tolerance;
      asker_patience;
      queue_policy;
    }
  in
  let algo =
    Opencube_algo.create ~net:(Runner.net env)
      ~callbacks:(Runner.callbacks env) ~config
  in
  Runner.attach env (Opencube_algo.instance algo);
  (env, algo)

let make ?(seed = 42) ?(delay = Ocube_net.Network.Constant 1.0)
    ?(cs = Runner.Fixed 1.0) ?asker_patience ?(trace = false) ?(metrics = false)
    ~kind ~n () =
  let attached create =
    let env = Runner.make_env ~seed ~n ~delay ~cs ~trace ~metrics () in
    let inst = create ~net:(Runner.net env) ~callbacks:(Runner.callbacks env) in
    Runner.attach env inst;
    (env, inst)
  in
  match kind with
  | Opencube { census_rounds; fault_tolerance } ->
    let env, algo =
      make_opencube ~seed ~delay ~cs ~census_rounds ~fault_tolerance
        ?asker_patience ~trace ~metrics ~p:(log2i n) ()
    in
    (env, Opencube_algo.instance algo)
  | Raymond shape ->
    let tree = Static_tree.build shape ~n in
    attached (fun ~net ~callbacks ->
        Raymond.instance (Raymond.create ~net ~callbacks ~tree ()))
  | Naimi_trehel ->
    attached (fun ~net ~callbacks ->
        Naimi_trehel.instance (Naimi_trehel.create ~net ~callbacks ~n ()))
  | Central ->
    attached (fun ~net ~callbacks ->
        Central.instance (Central.create ~net ~callbacks ~n ()))
  | Suzuki_kasami ->
    attached (fun ~net ~callbacks ->
        Suzuki_kasami.instance (Suzuki_kasami.create ~net ~callbacks ~n ()))
  | Ricart_agrawala ->
    attached (fun ~net ~callbacks ->
        Ricart_agrawala.instance (Ricart_agrawala.create ~net ~callbacks ~n ()))
  | Generic rule ->
    let tree = Static_tree.build Static_tree.Binomial ~n in
    attached (fun ~net ~callbacks ->
        Generic_scheme.instance
          (Generic_scheme.create ~net ~callbacks ~tree ~rule ()))

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

type simulate_error = Invalid_run of string | Stalled of string

(* The open cube and the binomial trees need a power of two. *)
let check_nodes kind n =
  let power_of_two =
    match kind with
    | Opencube _ | Raymond Static_tree.Binomial | Generic _ -> true
    | Raymond _ | Naimi_trehel | Central | Suzuki_kasami | Ricart_agrawala ->
      false
  in
  if n < 1 then Error (Printf.sprintf "-n must be at least 1 (got %d)" n)
  else if power_of_two && n land (n - 1) <> 0 then
    Error
      (Printf.sprintf "-n must be a power of two for %s (got %d)"
         (algo_label kind) n)
  else Ok kind

let simulate ?(trace = false) ?(metrics = false) s =
  match Result.bind (kind_of_string s.algo) (fun k -> check_nodes k s.n) with
  | Error msg -> Error (Invalid_run msg)
  | Ok kind -> (
    let env, inst =
      make ~seed:s.seed ~kind ~n:s.n ~cs:(Runner.Fixed s.cs)
        ~asker_patience:s.patience ~trace ~metrics ()
    in
    Runner.run_arrivals env
      (Runner.Arrivals.poisson ~rng:(Runner.rng env) ~n:s.n
         ~rate_per_node:s.rate ~horizon:s.horizon);
    if s.failures > 0 then begin
      let spacing = s.horizon /. float_of_int (s.failures + 1) in
      Runner.schedule_faults env
        (Runner.Faults.random ~rng:(Runner.rng env) ~n:s.n ~count:s.failures
           ~start:spacing ~spacing
           ~recover_after:(if s.recover > 0.0 then Some s.recover else None)
           ())
    end;
    match Runner.run_to_quiescence env with
    | () -> Ok (env, inst)
    | exception Runner.Stalled verdict ->
      Error
        (Stalled
           (Printf.sprintf
              "%s; -a %s -n %d --seed %d --rate %g --horizon %g --cs %g \
               --failures %d --recover %g --patience %g"
              verdict s.algo s.n s.seed s.rate s.horizon s.cs s.failures
              s.recover s.patience)))

let probe env node =
  let before = Runner.messages_sent env in
  Runner.submit env node;
  Runner.run_to_quiescence env;
  Runner.messages_sent env - before

let rec alpha p =
  if p < 1 then invalid_arg "alpha: p must be >= 1"
  else if p = 1 then 2
  else (2 * alpha (p - 1)) + (3 * (1 lsl (p - 2))) + (p - 1)

let average_formula n = (0.75 *. float_of_int (log2i n)) +. 1.25
