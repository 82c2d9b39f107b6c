module Runner = Ocube_mutex.Runner
module Runtime = Ocube_mutex.Runtime
module Wire = Ocube_mutex.Wire
module Network = Ocube_net.Network

type case = { algo : Spec.algo; p : int; cs : float; rounds : int }

let case_name c = Printf.sprintf "%s/p%d/r%d" (Spec.name c.algo) c.p c.rounds

(* Serial gap wide enough that each request is fully served before the
   next arrival (cf. Scenario.serial_gap): p+3 hops of at most delta,
   plus the CS itself, plus slack. Under it the DES run is the
   time-ordered interleaving of independent request chains — the same
   chain order the lockstep cluster drives. *)
let gap ~p ~cs = (float_of_int (p + 3) *. 1.0) +. cs +. 1.0

let des_run c =
  let n = 1 lsl c.p in
  let env =
    Runner.make_env ~seed:0 ~n ~delay:(Network.Constant 1.0)
      ~cs:(Runner.Fixed c.cs) ~trace:true ~metrics:true ()
  in
  let module B = Spec.Build (Runtime.Sim) in
  let inst =
    B.build c.algo
      ~params:(Spec.default_params ~p:c.p)
      ~net:(Runner.net env) ~callbacks:(Runner.callbacks env)
  in
  Runner.attach env inst;
  let g = gap ~p:c.p ~cs:c.cs in
  Runner.run_arrivals env
    (List.init (c.rounds * n) (fun i -> (float_of_int i *. g, i mod n)));
  Runner.run_to_quiescence env;
  if Runner.violations env <> 0 then failwith "conformance: DES violation";
  if Runner.outstanding env <> 0 then failwith "conformance: DES undrained";
  env

let des_digests c =
  let digests = Array.make (1 lsl c.p) "" in
  List.iter
    (fun { Runner.node; step; _ } ->
      match step with
      | Runner.Send { dst; msg } ->
        digests.(node) <- Wire.mix digests.(node) ~dst msg
      | _ -> ())
    (Runner.trace (des_run c));
  digests

let proc_run c =
  let o =
    Cluster.run
      {
        (Cluster.default_config ~algo:c.algo ~p:c.p) with
        cs = c.cs;
        workload = Cluster.Lockstep { rounds = c.rounds };
      }
  in
  match Cluster.oracle_clean o with
  | Ok () -> o
  | Error e -> failwith ("conformance: cluster not oracle-clean: " ^ e)

let proc_digests c = (proc_run c).Cluster.digests

let check c =
  let des = des_digests c in
  let proc = proc_digests c in
  let mismatches = ref [] in
  Array.iteri
    (fun i d -> if not (String.equal d proc.(i)) then mismatches := i :: !mismatches)
    des;
  match !mismatches with
  | [] -> Ok ()
  | l ->
    Error
      (Printf.sprintf "%s: per-node send digests diverge at nodes [%s]"
         (case_name c)
         (String.concat "; " (List.rev_map string_of_int l)))
