(* E4 — comparison against the baselines the paper positions itself
   between (introduction): Raymond's static tree (O(diameter) worst case,
   workload insensitive) and Naimi-Trehel's dynamic tree (O(log n) average
   but O(n) worst case), plus a centralized coordinator anchor.

   Two workloads:
   - serial random probes: per-request message cost without contention;
   - concurrent Poisson load: messages per CS entry and mean waiting time. *)

open Ocube_mutex
open Ocube_stats
module Rng = Ocube_sim.Rng

let kinds =
  Exp_common.
    [
      Opencube { census_rounds = 2; fault_tolerance = false };
      Raymond Ocube_topology.Static_tree.Binomial;
      Raymond Ocube_topology.Static_tree.Path;
      Naimi_trehel;
      Suzuki_kasami;
      Ricart_agrawala;
      Central;
    ]

let serial_stats ~kind ~n ~probes ~seed =
  let env, _ = Exp_common.make ~seed ~kind ~n () in
  let rng = Runner.rng env in
  let summary = Summary.create () in
  let worst = ref 0 in
  for _ = 1 to probes do
    let node = Rng.int rng n in
    let m = Exp_common.probe env node in
    Summary.add_int summary m;
    if m > !worst then worst := m
  done;
  (Summary.mean summary, !worst)

let serial_table () =
  let table =
    Table.create
      ~title:
        "E4a. Serial random requests: messages per request (mean / worst), \
         2000 probes"
      ~columns:
        ([ ("algorithm", Table.Left) ]
        @ List.map (fun n -> (string_of_int n, Table.Right)) [ 16; 64; 256 ])
      ()
  in
  List.iter
    (fun kind ->
      let cells =
        List.map
          (fun n ->
            let mean, worst = serial_stats ~kind ~n ~probes:2000 ~seed:7 in
            Printf.sprintf "%.2f / %d" mean worst)
          [ 16; 64; 256 ]
      in
      Table.add_row table (Exp_common.algo_label kind :: cells))
    kinds;
  Table.render table

let loaded_stats ~kind ~n ~seed =
  (* Constant system-wide arrival rate (0.1/t) against a service time of
     one CS + a few message hops: utilization stays around one half at
     every size, so waiting times reflect the protocol rather than an
     unbounded backlog. *)
  let env, _ = Exp_common.make ~seed ~kind ~n ~cs:(Runner.Fixed 0.5) () in
  let arrivals =
    Runner.Arrivals.poisson ~rng:(Runner.rng env) ~n
      ~rate_per_node:(0.1 /. float_of_int n) ~horizon:20_000.0
  in
  Runner.run_arrivals env arrivals;
  Runner.run_to_quiescence env;
  assert (Runner.violations env = 0);
  let entries = Runner.cs_entries env in
  let mpc = float_of_int (Runner.messages_sent env) /. float_of_int entries in
  (mpc, Summary.mean (Runner.wait_stats env), entries)

let loaded_table () =
  let table =
    Table.create
      ~title:
        "E4b. Concurrent Poisson load (0.1/t system-wide, cs 0.5, horizon \
         20000): messages per CS entry / mean waiting time"
      ~columns:
        ([ ("algorithm", Table.Left) ]
        @ List.map (fun n -> (string_of_int n, Table.Right)) [ 16; 64; 256 ])
      ()
  in
  List.iter
    (fun kind ->
      let cells =
        List.map
          (fun n ->
            let mpc, wait, _ = loaded_stats ~kind ~n ~seed:13 in
            Printf.sprintf "%.2f / %.1f" mpc wait)
          [ 16; 64; 256 ]
      in
      Table.add_row table (Exp_common.algo_label kind :: cells))
    kinds;
  Table.render table

let run () =
  serial_table () ^ "\n" ^ loaded_table ()
  ^ "Expected shape (paper, introduction): open-cube tracks Raymond's \
     bounded\nworst case while keeping Naimi-Trehel-like averages; \
     raymond/path shows the\nO(diameter) blow-up; naimi-trehel's worst case \
     grows with N.\n"
