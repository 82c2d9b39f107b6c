(* E10 — saturation throughput (extension beyond the paper's tables).

   Every node permanently wants the critical section (closed loop with
   zero think time): the system alternates CS execution and token handoff,
   so throughput = 1 / (cs + handoff latency). Tree algorithms with short
   handoffs win; broadcast/permission algorithms pay their message storms
   in bandwidth, not latency, so they stay competitive on throughput while
   flooding the network - both columns are shown. *)

open Ocube_mutex
open Ocube_stats
module Pool = Ocube_par.Pool

let rounds = 30

let run_kind ~kind ~n ~seed =
  let env, _ = Exp_common.make ~seed ~kind ~n ~cs:(Runner.Fixed 1.0) () in
  (* Seed a closed loop: `rounds` wishes per node; the runner's backlog
     re-issues them one at a time. *)
  for node = 0 to n - 1 do
    for _ = 1 to rounds do
      Runner.submit env node
    done
  done;
  Runner.run_to_quiescence env;
  assert (Runner.violations env = 0);
  let entries = Runner.cs_entries env in
  assert (entries = rounds * n);
  let makespan = Runner.now env in
  ( float_of_int entries /. makespan,
    float_of_int (Runner.messages_sent env) /. float_of_int entries )

let run () =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E10. Saturation throughput (closed loop, every node cycles %d \
            CSs of 1.0; delta = 1): CS/time-unit and msgs/CS"
           rounds)
      ~columns:
        ([ ("algorithm", Table.Left) ]
        @ List.map (fun n -> (string_of_int n, Table.Right)) [ 16; 64 ])
      ()
  in
  let kinds =
    Exp_common.
      [
        Opencube { census_rounds = 2; fault_tolerance = false };
        Raymond Ocube_topology.Static_tree.Binomial;
        Naimi_trehel;
        Suzuki_kasami;
        Ricart_agrawala;
        Central;
      ]
  in
  (* Twelve independent closed-loop runs (protocol x size): flatten the
     grid, run it across the pool, and rebuild the rows in order. *)
  let cells =
    Pool.map_list
      (Pool.default ())
      (fun (kind, n) ->
        let thr, mpc = run_kind ~kind ~n ~seed:61 in
        Printf.sprintf "%.3f / %.1f" thr mpc)
      (List.concat_map (fun kind -> [ (kind, 16); (kind, 64) ]) kinds)
  in
  let rec rows kinds cells =
    match (kinds, cells) with
    | kind :: kinds', c16 :: c64 :: cells' ->
      Table.add_row table [ Exp_common.algo_label kind; c16; c64 ];
      rows kinds' cells'
    | _ -> ()
  in
  rows kinds cells;
  Table.render table
  ^ "Naimi-Trehel and the broadcast algorithms hand the token straight to \
     the\nnext requester (cycle = cs + delta -> 0.5/t here); the open-cube \
     pays its\nloan returns and Raymond its hop-by-hop walk in cycle time, \
     while the\nbroadcast algorithms pay O(N) messages per entry instead.\n"
