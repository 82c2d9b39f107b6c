(* Where one serial acquire's wall time goes on the process runtime.

   Runs the proc_lockstep_n2 benchmark's cluster (the open cube at p = 1
   as two forked node processes, tick 0.5 ms, CS 0.02 units = 10 us,
   10,000 acquires in node order) and reads the merged log: each gap
   between consecutive events of one acquire is a hop, named by the two
   events around it, and each hop's median is printed in microseconds.
   With two nodes every acquire but the first goes wish -> request ->
   token -> enter -> exit, then on to the next wish. DESIGN.md §15.4
   tabulates these medians.

     dune exec examples/lockstep_hops.exe *)

module Cluster = Ocube_proc.Cluster
module Pspec = Ocube_proc.Spec

let config =
  {
    Cluster.algo = Pspec.Opencube;
    params = Pspec.default_params ~p:1;
    tick = 0.0005;
    delta = 1.0;
    cs = 0.02;
    workload = Cluster.Lockstep { rounds = 5000 };
    kills = [];
    deadline = 60.0;
    metrics = false;
  }

let hops =
  [ "wish -> request"; "request -> token"; "token -> enter"; "enter -> exit"; "exit -> wish" ]

let kind = function
  | Cluster.Ev_wish _ -> Some `Wish
  | Cluster.Ev_send _ -> Some `Send
  | Cluster.Ev_enter _ -> Some `Enter
  | Cluster.Ev_exit _ -> Some `Exit
  | Cluster.Ev_drop _ | Cluster.Ev_kill _ | Cluster.Ev_dead _ | Cluster.Ev_violation _ ->
    None

(* The hop between two consecutive events of these kinds. *)
let hop_name = function
  | `Wish, `Send -> Some "wish -> request"
  | `Send, `Send -> Some "request -> token"
  | `Send, `Enter -> Some "token -> enter"
  | `Enter, `Exit -> Some "enter -> exit"
  | `Exit, `Wish -> Some "exit -> wish"
  | _ -> None

let () =
  let o = Cluster.run config in
  let gaps = Hashtbl.create 8 in
  let gaps_of h = Option.value ~default:[] (Hashtbl.find_opt gaps h) in
  let add h d = Hashtbl.replace gaps h (d :: gaps_of h) in
  let last = ref None in
  List.iter
    (fun (t, ev) ->
      match kind ev with
      | None -> ()
      | Some k ->
        (match !last with
        | Some (t0, prev) -> Option.iter (fun h -> add h (t -. t0)) (hop_name (prev, k))
        | None -> ());
        last := Some (t, k))
    o.Cluster.events;
  List.iter
    (fun h ->
      let a = Array.of_list (gaps_of h) in
      Array.sort Float.compare a;
      if Array.length a = 0 then Printf.printf "%-17s n=%5d\n" h 0
      else
        Printf.printf "%-17s n=%5d  p50=%6.1f us\n" h (Array.length a)
          (a.(Array.length a / 2) *. 1e6))
    hops;
  match Cluster.oracle_clean o with
  | Ok () -> Printf.printf "oracle clean, %d entries\n" o.Cluster.entries
  | Error e ->
    Printf.printf "oracle: %s\n" e;
    exit 1
