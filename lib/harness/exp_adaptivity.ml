(* E7 — workload adaptivity (paper, introduction).

   "the less a node requests to enter the critical section, the further it
   is from the root, and thus the lighter becomes its workload". Under a
   hotspot workload the hot nodes should sit nearer the root and pay fewer
   messages per request than under a uniform workload. *)

open Ocube_mutex
open Ocube_stats

let depth fathers i =
  let rec up acc j =
    match fathers.(j) with None -> acc | Some f -> up (acc + 1) f
  in
  up 0 i

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let run_workload ~p ~hot ~seed =
  let n = 1 lsl p in
  let env, algo =
    Exp_common.make_opencube ~seed ~fault_tolerance:false ~p
      ~cs:(Runner.Fixed 0.5) ()
  in
  let arrivals =
    Runner.Arrivals.hotspot ~rng:(Runner.rng env) ~n ~hot ~hot_rate:0.05
      ~cold_rate:0.002 ~horizon:3000.0
  in
  Runner.run_arrivals env arrivals;
  Runner.run_to_quiescence env;
  assert (Runner.violations env = 0);
  let fathers = Opencube_algo.snapshot_tree algo in
  let hot_depths = List.map (fun i -> float_of_int (depth fathers i)) hot in
  let cold =
    List.init n (fun i -> i) |> List.filter (fun i -> not (List.mem i hot))
  in
  let cold_depths = List.map (fun i -> float_of_int (depth fathers i)) cold in
  ( mean hot_depths,
    mean cold_depths,
    float_of_int (Runner.messages_sent env)
    /. float_of_int (Runner.cs_entries env) )

let run () =
  let table =
    Table.create
      ~title:
        "E7. Adaptivity under hotspot load (hot rate 0.05/t, cold rate \
         0.002/t): final depth of hot vs cold nodes"
      ~columns:
        [
          ("N", Table.Right);
          ("hot nodes", Table.Left);
          ("mean hot depth", Table.Right);
          ("mean cold depth", Table.Right);
          ("msgs per CS", Table.Right);
        ]
      ()
  in
  List.iter
    (fun (p, hot) ->
      let hd, cd, mpc = run_workload ~p ~hot ~seed:(4000 + p) in
      Table.add_row table
        [
          Table.fmt_int (1 lsl p);
          String.concat "," (List.map string_of_int hot);
          Table.fmt_float hd;
          Table.fmt_float cd;
          Table.fmt_float mpc;
        ])
    [ (4, [ 13; 14 ]); (5, [ 21; 27; 30 ]); (6, [ 35; 50; 61 ]) ];
  Table.render table
  ^ "Hot nodes finish closer to the root than cold ones: the structure \
     adapts to\nthe request pattern while keeping its log2 N diameter.\n"
