open Types
module Arrivals = Ocube_workload.Arrivals
module Faults = Ocube_workload.Faults
module Engine = Ocube_sim.Engine
module Rng = Ocube_sim.Rng
module Summary = Ocube_stats.Summary
module Metrics = Ocube_obs.Metrics
module Export = Ocube_obs.Export
module Recorder = Ocube_obs.Recorder

type cs_model = Fixed of float | Exponential of { mean : float; cap : float }

type step =
  | Wish
  | Enter
  | Exit
  | Send of { dst : node_id; msg : Message.t }
  | Fault
  | Recover
  | Violation

type entry = { time : float; node : node_id; step : step }

type env = {
  engine : Engine.t;
  net : Net.t;
  workload_rng : Rng.t;
  cs_rng : Rng.t;
  cs : cs_model;
  tracing : bool;
  mutable rev_trace : entry list;
  mutable inst : instance option;
  (* per-node bookkeeping — byte flags, not bool arrays: one byte per node
     instead of one word keeps the runner's footprint flat at N ≈ 1M *)
  waiting : Bytes.t;  (* wish issued, CS not yet entered *)
  in_cs : Bytes.t;
  mutable in_cs_count : int;
      (* population count of [in_cs], so the safety check on every CS
         entry is O(1) instead of an O(N) scan *)
  backlog : int array;  (* wishes deferred while one is outstanding *)
  issue_time : float array;
  mutable input_at : float;  (* the last wish, fault or recovery *)
  mutable longest_recovery : float;
  (* metrics *)
  mutable issued : int;
  mutable entries : int;
  mutable violations : int;
  mutable abandoned : int;
  mutable dropped_wishes : int;
  wait_stats : Summary.t;
  mutable rev_waits : float list;
  (* [None] keeps the hot path free of every telemetry tap. *)
  recorder : Recorder.t option;
}

let flag b i = Bytes.get b i <> '\000'

let set_flag b i v = Bytes.set b i (if v then '\001' else '\000')

let set_in_cs env i v =
  if flag env.in_cs i <> v then begin
    set_flag env.in_cs i v;
    env.in_cs_count <- (env.in_cs_count + if v then 1 else -1)
  end

let instance env =
  match env.inst with
  | Some i -> i
  | None -> failwith "Runner: no algorithm attached"

(* The structured record: plain values, rendered only when read. *)
let log env node step =
  if env.tracing then
    env.rev_trace <- { time = Engine.now env.engine; node; step } :: env.rev_trace

(* One telemetry tap, a no-op without a recorder. *)
let tap env f node =
  match env.recorder with
  | None -> ()
  | Some r -> f r ~node ~time:(Engine.now env.engine)

let cs_duration env =
  match env.cs with
  | Fixed d -> d
  | Exponential { mean; cap } -> Float.min cap (Rng.exponential env.cs_rng ~mean)

let rec submit env node =
  env.input_at <- Engine.now env.engine;
  if Net.is_failed env.net node then env.dropped_wishes <- env.dropped_wishes + 1
  else if flag env.waiting node || flag env.in_cs node then
    env.backlog.(node) <- env.backlog.(node) + 1
  else begin
    set_flag env.waiting node true;
    env.issue_time.(node) <- Engine.now env.engine;
    env.issued <- env.issued + 1;
    log env node Wish;
    tap env Recorder.wish node;
    (instance env).request_cs node
  end

and on_enter_cb env node =
  if env.in_cs_count > 0 then begin
    env.violations <- env.violations + 1;
    log env node Violation;
    Option.iter (fun r -> Recorder.violation r ~node) env.recorder
  end;
  tap env Recorder.enter node;
  if flag env.waiting node then begin
    set_flag env.waiting node false;
    let wait = Engine.now env.engine -. env.issue_time.(node) in
    Summary.add env.wait_stats wait;
    env.rev_waits <- wait :: env.rev_waits
  end;
  set_in_cs env node true;
  env.entries <- env.entries + 1;
  log env node Enter;
  let d = cs_duration env in
  ignore
    (Net.set_timer env.net ~node ~delay:d (fun () ->
         (instance env).release_cs node;
         if env.backlog.(node) > 0 then begin
           env.backlog.(node) <- env.backlog.(node) - 1;
           submit env node
         end))

and on_exit_cb env node =
  tap env Recorder.exit node;
  set_in_cs env node false;
  log env node Exit

let make_env ~seed ~n ~delay ~cs ?(trace = false) ?(metrics = false) () =
  let engine = Engine.create () in
  let master = Rng.create seed in
  let net_rng = Rng.split master in
  let workload_rng = Rng.split master in
  let cs_rng = Rng.split master in
  let net = Net.create ~engine ~rng:net_rng ~n ~delay () in
  let env =
    {
      engine;
      net;
      workload_rng;
      cs_rng;
      cs;
      tracing = trace;
      rev_trace = [];
      inst = None;
      waiting = Bytes.make n '\000';
      in_cs = Bytes.make n '\000';
      in_cs_count = 0;
      backlog = Array.make n 0;
      issue_time = Array.make n 0.0;
      input_at = 0.0;
      longest_recovery = 0.0;
      issued = 0;
      entries = 0;
      violations = 0;
      abandoned = 0;
      dropped_wishes = 0;
      wait_stats = Summary.create ();
      rev_waits = [];
      recorder = (if metrics then Some (Recorder.create ~n) else None);
    }
  in
  (* Message tap: count every send against its source, charge it to its
     origin's open span, and log it when tracing. *)
  (match (env.recorder, trace) with
  | Some r, false ->
    Net.set_send_hook net (fun ~src ~dst:_ msg ->
        Recorder.send r ~src ~origin:(Message.origin msg))
  | _, true ->
    Net.set_send_hook net (fun ~src ~dst msg ->
        (match env.recorder with
        | Some r -> Recorder.send r ~src ~origin:(Message.origin msg)
        | None -> ());
        log env src (Send { dst; msg }))
  | None, false -> ());
  env

let net env = env.net

let engine env = env.engine

let rng env = env.workload_rng

let callbacks env =
  { on_enter = on_enter_cb env; on_exit = on_exit_cb env }

let attach env inst =
  match env.inst with
  | Some _ -> invalid_arg "Runner.attach: instance already attached"
  | None ->
    env.inst <- Some inst;
    Option.iter
      (fun r -> Metrics.set_algo (Recorder.registry r) inst.algo_name)
      env.recorder

(* --- the structured record ---------------------------------------------- *)

let trace env = List.rev env.rev_trace

let tag = function
  | Wish -> "wish"
  | Enter | Exit -> "cs"
  | Send _ -> "send"
  | Fault | Recover -> "fault"
  | Violation -> "violation"

let detail = function
  | Wish -> "requests CS"
  | Enter -> "enter"
  | Exit -> "exit"
  | Send { dst; msg } -> Format.asprintf "-> %d: %a" dst Message.pp msg
  | Fault -> "failed"
  | Recover -> "recovering"
  | Violation -> "entered CS while another node is inside"

let pp_entry ppf e =
  Format.fprintf ppf "t=%.2f [%d] %s: %s" e.time e.node (tag e.step)
    (detail e.step)

let render_trace env =
  String.concat "" (List.map (Format.asprintf "%a\n" pp_entry) (trace env))

let instants env =
  List.map
    (fun { time; node; step } ->
      { Export.time; node; name = tag step; detail = detail step })
    (trace env)

(* --- observability -------------------------------------------------------- *)

let spans env = Option.map Recorder.spans env.recorder

(* The event-queue watermark is the engine's own, tracked after every
   fired event; it is copied into its gauge whenever the registry is
   read, so no step hook samples it. *)
let metrics_snapshot env =
  Option.map
    (fun r ->
      Recorder.pending_max r (float_of_int (Engine.pending_max env.engine));
      Metrics.snapshot (Recorder.registry r))
    env.recorder

let run_arrivals env arrivals =
  List.iter
    (fun (time, node) ->
      ignore
        (Engine.schedule_at env.engine ~time (fun () -> submit env node)))
    arrivals

(* Open-loop feed: keep exactly one future arrival armed. Pulling the
   next arrival only when the current one fires bounds the workload's
   event-queue footprint at one event regardless of stream length, and
   source times are nondecreasing so [schedule_at] never sees the past. *)
let run_source env source =
  let rec arm () =
    match source () with
    | None -> ()
    | Some (time, node) ->
      ignore
        (Engine.schedule_at env.engine ~time (fun () ->
             submit env node;
             arm ()))
  in
  arm ()

let fail_node env node =
  (* The node dies: whatever it was doing evaporates with it. *)
  env.input_at <- Engine.now env.engine;
  tap env Recorder.fault node;
  if flag env.waiting node then begin
    set_flag env.waiting node false;
    env.abandoned <- env.abandoned + 1
  end;
  (* A node dying inside its CS already counted as an entry; the token it
     held is lost and must be regenerated by the survivors. *)
  set_in_cs env node false;
  env.backlog.(node) <- 0;
  Net.fail env.net node;
  log env node Fault

let recover_node env node =
  env.input_at <- Engine.now env.engine;
  Option.iter (fun r -> Recorder.recover r ~node) env.recorder;
  Net.recover env.net node;
  log env node Recover;
  (instance env).on_recovered node

let schedule_faults env (faults : Faults.t) =
  List.iter
    (fun { Faults.at; node; recover_after } ->
      Option.iter
        (fun r -> env.longest_recovery <- Float.max env.longest_recovery r)
        recover_after;
      ignore
        (Engine.schedule_at env.engine ~time:at (fun () ->
             if not (Net.is_failed env.net node) then begin
               fail_node env node;
               match recover_after with
               | None -> ()
               | Some after ->
                 ignore
                   (Engine.schedule env.engine ~delay:after (fun () ->
                        recover_node env node))
             end)))
    faults

let run ~until env = Engine.run ~until env.engine

(* --- progress watchdog ------------------------------------------------------

   A livelocked run never drains its event queue, so the run goes in
   chunks of [watch_chunk] events and is stopped between chunks (never per
   event) when neither a CS entry nor an input event has happened for
   [progress_bound]. A healthy run goes without a CS entry for at most one
   repair (the instance's [repair_bound]), a grant along N + 2 hops and
   one CS. Repairs can follow one another (a census abort restarts the
   search, a lender's enquiry follows a loss), so the bound allows 16 back
   to back, plus the longest recovery delay. *)

exception Stalled of string

let watch_chunk = 1 lsl 16

let progress_bound env =
  let grant = float_of_int (Net.size env.net + 2) *. Net.delta env.net in
  let cs = match env.cs with Fixed d -> d | Exponential { cap; _ } -> cap in
  (16.0 *. ((instance env).repair_bound +. grant +. cs)) +. env.longest_recovery

let stalled env ~quiet ~bound =
  let waiting =
    List.filter (flag env.waiting) (List.init (Bytes.length env.waiting) Fun.id)
    |> List.stable_sort (fun a b -> Float.compare env.issue_time.(a) env.issue_time.(b))
  in
  let k = List.length waiting in
  Stalled
    (Printf.sprintf
       "liveness: no CS entry and no input for %.1f time units (bound %.1f) \
        at t=%.1f, %d wish(es) outstanding%s%s%s"
       quiet bound (Engine.now env.engine) k
       (if k > 0 then ":" else "")
       (String.concat ""
          (List.filteri (fun j _ -> j < 8) waiting
          |> List.map (fun i -> Printf.sprintf " %d@%.1f" i env.issue_time.(i))))
       (if k > 8 then Printf.sprintf " +%d more" (k - 8) else ""))

let run_to_quiescence env =
  let chunk () =
    Engine.run ~max_steps:watch_chunk env.engine;
    not (Engine.quiescent env.engine)
  in
  let entries = ref env.entries and progress_at = ref (Engine.now env.engine) in
  (* Most runs drain within their first chunk and never need the bound. *)
  let bound = lazy (progress_bound env) in
  while chunk () do
    let now = Engine.now env.engine in
    if env.entries <> !entries then begin
      entries := env.entries;
      progress_at := now
    end;
    let quiet = now -. Float.max !progress_at env.input_at in
    if quiet > Lazy.force bound then
      raise (stalled env ~quiet ~bound:(Lazy.force bound))
  done

let now env = Engine.now env.engine

let cs_entries env = env.entries

let violations env = env.violations

let wait_stats env = env.wait_stats

let wait_samples env = List.rev env.rev_waits

let issued env = env.issued

let abandoned env = env.abandoned

let outstanding env = env.issued - env.entries - env.abandoned

let messages_sent env = Net.sent_total env.net

let messages_by_category env = Net.sent_by_category env.net

let fault_overhead_messages env =
  List.fold_left
    (fun acc (cat, n) ->
      if Message.is_fault_overhead_category cat then acc + n else acc)
    0
    (messages_by_category env)

let reset_message_counters env = Net.reset_counters env.net
