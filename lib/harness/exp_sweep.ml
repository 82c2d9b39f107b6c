(* Heavy-traffic saturation sweeps (ROADMAP item 2).

   One cell = (algorithm x load regime x system size): an open-loop
   arrival source ({!Ocube_workload.Source}) drives the runner with
   metrics and request spans on, the run drains to quiescence, and the
   cell reduces its spans to a small JSON document — p50/p95/p99 waiting
   time, the queueing-vs-transit split, and messages per request.

   Cells are independent simulations, so the sweep fans them over
   {!Ocube_par.Pool}. Each cell derives its seed from the base seed and
   its grid position, every reduction is a pure function of the cell's
   own run, and the pool returns results in grid order — the emitted
   JSON is byte-identical at any [--jobs] width.

   Load regimes are expressed as aggregate arrival rates relative to the
   system's service capacity (CS duration 1.0, handoff >= one delta):
   light ~0.2x, moderate ~0.6x, heavy 1.2x (oversaturated: queueing
   dominates and the backlog drains only after the horizon), plus a
   bursty MMPP regime whose peaks oversaturate, and a Zipf hotspot
   regime that skews moderate load onto a few nodes. *)

open Ocube_mutex
module Source = Ocube_workload.Source
module Span = Ocube_obs.Span
module Json = Ocube_obs.Json
module Rng = Ocube_sim.Rng
module Pool = Ocube_par.Pool

type load =
  | Light
  | Moderate
  | Heavy
  | Bursty
  | Zipf

let load_to_string = function
  | Light -> "light"
  | Moderate -> "moderate"
  | Heavy -> "heavy"
  | Bursty -> "bursty"
  | Zipf -> "zipf"

let load_of_string = function
  | "light" -> Some Light
  | "moderate" -> Some Moderate
  | "heavy" -> Some Heavy
  | "bursty" -> Some Bursty
  | "zipf" -> Some Zipf
  | _ -> None

let all_loads = [ Light; Moderate; Heavy; Bursty; Zipf ]

(* The six algorithms of the comparison experiments. *)
let default_kinds =
  Exp_common.
    [
      Opencube { census_rounds = 2; fault_tolerance = true };
      Raymond Ocube_topology.Static_tree.Binomial;
      Naimi_trehel;
      Central;
      Suzuki_kasami;
      Ricart_agrawala;
    ]

type cell = {
  kind : Exp_common.algo_kind;
  load : load;
  n : int;
}

let grid ~kinds ~loads ~sizes =
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun load -> List.map (fun n -> { kind; load; n }) sizes)
        loads)
    kinds

let source_of_load ~rng ~n ~horizon = function
  | Light -> Source.poisson ~rng ~n ~rate:0.2 ~horizon
  | Moderate -> Source.poisson ~rng ~n ~rate:0.6 ~horizon
  | Heavy -> Source.poisson ~rng ~n ~rate:1.2 ~horizon
  | Bursty ->
    Source.bursty ~rng ~n ~rate:0.4 ~burst:4.0 ~on_mean:20.0 ~off_mean:60.0
      ~horizon
  | Zipf -> Source.zipf ~rng ~n ~rate:0.6 ~s:1.2 ~horizon

(* Nearest-rank percentile of an already-sorted sample. *)
let percentile sorted q =
  let m = Array.length sorted in
  if m = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int m)) in
    sorted.(max 0 (min (m - 1) (rank - 1)))
  end

let label cell =
  let algo =
    String.map
      (fun c -> if Char.equal c '/' then '-' else c)
      (Exp_common.algo_label cell.kind)
  in
  Printf.sprintf "%s_%s_n%d" algo (load_to_string cell.load) cell.n

(* Cell seeds mix the base seed with the grid position through one
   splitmix draw, so neighbouring cells get uncorrelated streams and the
   whole sweep stays a pure function of [seed]. *)
let cell_seed ~seed ~index =
  let r = Rng.create (seed + (7919 * (index + 1))) in
  Int64.to_int (Rng.bits64 r) land max_int

let f2s x =
  if Float.is_finite x then Printf.sprintf "%.9g" x else "null"

let run_cell ~seed ~horizon ~index cell =
  let env, _ =
    Exp_common.make
      ~seed:(cell_seed ~seed ~index)
      ~kind:cell.kind ~n:cell.n ~metrics:true ()
  in
  let src =
    source_of_load
      ~rng:(Runner.rng env)
      ~n:cell.n ~horizon cell.load
  in
  Runner.run_source env src;
  Runner.run_to_quiescence env;
  if Runner.violations env <> 0 then
    failwith ("Exp_sweep: safety violation in cell " ^ label cell);
  let spans =
    match Runner.spans env with
    | Some s -> s
    | None -> failwith "Exp_sweep: spans missing (metrics are on)"
  in
  let completed = List.filter (fun s -> s.Span.completed) (Span.closed spans) in
  let count = List.length completed in
  let waits =
    Array.of_list (List.map (fun s -> Span.wait s) completed)
  in
  Array.sort Float.compare waits;
  let mean f =
    if count = 0 then 0.0
    else
      List.fold_left (fun acc s -> acc +. f s) 0.0 completed
      /. float_of_int count
  in
  let makespan = Runner.now env in
  let b = Buffer.create 512 in
  let field ?(last = false) name v =
    Buffer.add_string b "  ";
    Json.escape_to b name;
    Buffer.add_string b ": ";
    Buffer.add_string b v;
    if not last then Buffer.add_char b ',';
    Buffer.add_char b '\n'
  in
  Buffer.add_string b "{\n";
  field "algo" (Json.escape (Exp_common.algo_label cell.kind));
  field "load" (Json.escape (load_to_string cell.load));
  field "n" (string_of_int cell.n);
  field "seed" (string_of_int seed);
  field "horizon" (f2s horizon);
  field "requests_issued" (string_of_int (Runner.issued env));
  field "requests_completed" (string_of_int count);
  field "violations" (string_of_int (Runner.violations env));
  field "makespan" (f2s makespan);
  field "throughput"
    (f2s (if makespan > 0.0 then float_of_int count /. makespan else 0.0));
  field "wait_p50" (f2s (percentile waits 0.50));
  field "wait_p95" (f2s (percentile waits 0.95));
  field "wait_p99" (f2s (percentile waits 0.99));
  field "wait_mean" (f2s (mean (fun s -> Span.wait s)));
  field "queueing_mean" (f2s (mean (fun s -> s.Span.queueing)));
  field "transit_mean" (f2s (mean (fun s -> s.Span.transit)));
  field "msgs_per_request" (f2s (mean (fun s -> float_of_int s.Span.hops)));
  field ~last:true "messages_total" (string_of_int (Runner.messages_sent env));
  Buffer.add_string b "}\n";
  (label cell, Buffer.contents b)

let run ?(seed = 42) ?(horizon = 200.0) cells =
  let cells = Array.of_list cells in
  let results =
    Pool.map_array (Pool.default ()) ~n:(Array.length cells) (fun i ->
        run_cell ~seed ~horizon ~index:i cells.(i))
  in
  Array.to_list results

let index_json results =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n  \"cells\": [\n";
  List.iteri
    (fun i (stem, _) ->
      Buffer.add_string b "    ";
      Json.escape_to b (stem ^ ".json");
      if i < List.length results - 1 then Buffer.add_char b ',';
      Buffer.add_char b '\n')
    results;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b
