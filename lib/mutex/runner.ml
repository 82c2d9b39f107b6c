open Types
module Arrivals = Ocube_workload.Arrivals
module Faults = Ocube_workload.Faults
module Engine = Ocube_sim.Engine
module Rng = Ocube_sim.Rng
module Trace = Ocube_sim.Trace
module Summary = Ocube_stats.Summary
module Metrics = Ocube_obs.Metrics
module Span = Ocube_obs.Span

type cs_model = Fixed of float | Exponential of { mean : float; cap : float }

(* Observability bundle: the registry, the span table and the handles of
   every runner-defined metric. Built once in [make_env] when metrics are
   requested; [None] keeps the hot path free of even the enabled-flag
   loads. *)
type obs = {
  reg : Metrics.t;
  spans : Span.t;
  m_wishes : Metrics.counter;
  m_entries : Metrics.counter;
  m_messages : Metrics.counter;
  m_faults : Metrics.counter;
  m_recoveries : Metrics.counter;
  m_violations : Metrics.counter;
  m_abandoned : Metrics.counter;
  h_hops : Metrics.hist;
  h_wait_ms : Metrics.hist;
  g_pending : Metrics.gauge;
}

type env = {
  engine : Engine.t;
  net : Net.t;
  workload_rng : Rng.t;
  cs_rng : Rng.t;
  cs : cs_model;
  trace : Trace.t option;
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
  (* metrics *)
  mutable issued : int;
  mutable entries : int;
  mutable violations : int;
  mutable abandoned : int;
  mutable dropped_wishes : int;
  wait_stats : Summary.t;
  mutable rev_waits : float list;
  (* observability *)
  obs : obs option;
  (* Busy-time integral: accumulated virtual time during which at least
     one node was inside its critical section. The spans layer derives
     the queueing/transit split of a wait from differences of this
     integral. Only maintained when [obs] is on. *)
  mutable cs_occupancy : int;
  mutable busy_acc : float;
  mutable busy_since : float;
}

let flag b i = Bytes.get b i <> '\000'

let set_flag b i v = Bytes.set b i (if v then '\001' else '\000')

let set_in_cs env i v =
  if flag env.in_cs i <> v then begin
    set_flag env.in_cs i v;
    env.in_cs_count <- (env.in_cs_count + if v then 1 else -1)
  end

let busy_now env =
  if env.cs_occupancy > 0 then
    env.busy_acc +. (Engine.now env.engine -. env.busy_since)
  else env.busy_acc

let instance env =
  match env.inst with
  | Some i -> i
  | None -> failwith "Runner: no algorithm attached"

(* [detail] is a thunk, never evaluated when tracing is off. *)
let record env ?node ~tag detail =
  match env.trace with
  | None -> ()
  | Some tr -> Trace.record_thunk tr ~time:(Engine.now env.engine) ?node ~tag detail

let cs_duration env =
  match env.cs with
  | Fixed d -> d
  | Exponential { mean; cap } -> Float.min cap (Rng.exponential env.cs_rng ~mean)

let rec submit env node =
  if Net.is_failed env.net node then env.dropped_wishes <- env.dropped_wishes + 1
  else if flag env.waiting node || flag env.in_cs node then
    env.backlog.(node) <- env.backlog.(node) + 1
  else begin
    set_flag env.waiting node true;
    env.issue_time.(node) <- Engine.now env.engine;
    env.issued <- env.issued + 1;
    record env ~node ~tag:"wish" (fun () -> "requests CS");
    (match env.obs with
    | None -> ()
    | Some o ->
      Metrics.incr o.m_wishes ~node;
      Span.open_span o.spans ~node ~time:(Engine.now env.engine)
        ~busy:(busy_now env));
    (instance env).request_cs node
  end

and on_enter_cb env node =
  if env.in_cs_count > 0 then begin
    env.violations <- env.violations + 1;
    record env ~node ~tag:"violation"
      (fun () -> "entered CS while another node is inside");
    match env.obs with
    | None -> ()
    | Some o -> Metrics.incr o.m_violations ~node
  end;
  (match env.obs with
  | None -> ()
  | Some o ->
    (* The busy integral is read before this entry raises the occupancy:
       the queueing phase of the entering span counts only time blocked
       behind *other* nodes' critical sections. *)
    let now = Engine.now env.engine in
    Metrics.incr o.m_entries ~node;
    Span.enter o.spans ~node ~time:now ~busy:(busy_now env);
    if flag env.waiting node then begin
      let wait = now -. env.issue_time.(node) in
      Metrics.observe o.h_wait_ms ~node
        (int_of_float (Float.round (wait *. 1000.0)))
    end;
    if env.cs_occupancy = 0 then env.busy_since <- now;
    env.cs_occupancy <- env.cs_occupancy + 1);
  if flag env.waiting node then begin
    set_flag env.waiting node false;
    let wait = Engine.now env.engine -. env.issue_time.(node) in
    Summary.add env.wait_stats wait;
    env.rev_waits <- wait :: env.rev_waits
  end;
  set_in_cs env node true;
  env.entries <- env.entries + 1;
  record env ~node ~tag:"cs" (fun () -> "enter");
  let d = cs_duration env in
  ignore
    (Net.set_timer env.net ~node ~delay:d (fun () ->
         (instance env).release_cs node;
         if env.backlog.(node) > 0 then begin
           env.backlog.(node) <- env.backlog.(node) - 1;
           submit env node
         end))

and on_exit_cb env node =
  (match env.obs with
  | None -> ()
  | Some o ->
    if flag env.in_cs node then release_occupancy env;
    (match Span.close o.spans ~node ~time:(Engine.now env.engine) with
    | Some sp -> Metrics.observe o.h_hops ~node sp.Span.hops
    | None -> ()));
  set_in_cs env node false;
  record env ~node ~tag:"cs" (fun () -> "exit")

and release_occupancy env =
  env.cs_occupancy <- env.cs_occupancy - 1;
  if env.cs_occupancy = 0 then begin
    env.busy_acc <- env.busy_acc +. (Engine.now env.engine -. env.busy_since);
    env.busy_since <- 0.0
  end

let make_obs ~net ~n =
  let reg = Metrics.create ~n () in
  let o =
    {
      reg;
      spans = Span.create ~n;
      m_wishes = Metrics.counter reg ~name:"wishes_total" ~help:"CS wishes issued";
      m_entries = Metrics.counter reg ~name:"cs_entries_total" ~help:"critical sections entered";
      m_messages =
        Metrics.counter reg ~name:"messages_sent_total"
          ~help:"protocol messages sent, by source node";
      m_faults = Metrics.counter reg ~name:"faults_total" ~help:"fail-stop events";
      m_recoveries = Metrics.counter reg ~name:"recoveries_total" ~help:"node recoveries";
      m_violations =
        Metrics.counter reg ~name:"violations_total"
          ~help:"mutual-exclusion safety violations (must stay 0)";
      m_abandoned =
        Metrics.counter reg ~name:"abandoned_total"
          ~help:"requests lost to the requester's failure";
      h_hops =
        Metrics.hist reg ~name:"request_hops"
          ~help:"messages attributed to one request span";
      h_wait_ms =
        Metrics.hist reg ~name:"request_wait_ms"
          ~help:"wish-to-entry latency in milli-time-units";
      g_pending =
        Metrics.gauge reg ~name:"engine_pending_events_max"
          ~help:"event-queue depth watermark (node 0 carries the value)";
    }
  in
  (* Message tap: count every send against its source and charge
     origin-attributed messages to the origin's open span. *)
  Net.set_send_hook net (fun ~src ~dst:_ payload ->
      Metrics.incr o.m_messages ~node:src;
      let origin = Message.origin payload in
      if origin >= 0 then Span.note_hop o.spans ~node:origin);
  o

let make_env ~seed ~n ~delay ~cs ?(trace = false) ?(metrics = false) () =
  let engine = Engine.create () in
  let master = Rng.create seed in
  let net_rng = Rng.split master in
  let workload_rng = Rng.split master in
  let cs_rng = Rng.split master in
  let trace = if trace then Some (Trace.create ()) else None in
  let net = Net.create ~engine ~rng:net_rng ?trace ~n ~delay () in
  let obs = if metrics then Some (make_obs ~net ~n) else None in
  {
    engine;
    net;
    workload_rng;
    cs_rng;
    cs;
    trace;
    inst = None;
    waiting = Bytes.make n '\000';
    in_cs = Bytes.make n '\000';
    in_cs_count = 0;
    backlog = Array.make n 0;
    issue_time = Array.make n 0.0;
    issued = 0;
    entries = 0;
    violations = 0;
    abandoned = 0;
    dropped_wishes = 0;
    wait_stats = Summary.create ();
    rev_waits = [];
    obs;
    cs_occupancy = 0;
    busy_acc = 0.0;
    busy_since = 0.0;
  }

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
    (match env.obs with
    | Some o -> Metrics.set_algo o.reg inst.algo_name
    | None -> ())

let trace env = env.trace

(* The event-queue watermark is the engine's own, tracked after every
   fired event; it is copied into its gauge whenever the registry is
   read, so no step hook samples it. *)
let synced_registry env o =
  Metrics.set_max o.g_pending ~node:0
    (float_of_int (Engine.pending_max env.engine));
  o.reg

let metrics env =
  match env.obs with Some o -> Some (synced_registry env o) | None -> None

let spans env = match env.obs with Some o -> Some o.spans | None -> None

let metrics_snapshot env =
  match env.obs with
  | Some o -> Some (Metrics.snapshot (synced_registry env o))
  | None -> None

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
  (match env.obs with
  | None -> ()
  | Some o ->
    Metrics.incr o.m_faults ~node;
    if flag env.waiting node then Metrics.incr o.m_abandoned ~node;
    if flag env.in_cs node then release_occupancy env;
    (* Close the victim's span first (it does not overlap its own
       death), then mark the fault on every other open span. *)
    ignore
      (Span.abandon o.spans ~node ~time:(Engine.now env.engine)
         ~busy:(busy_now env));
    Span.fault_tick o.spans);
  if flag env.waiting node then begin
    set_flag env.waiting node false;
    env.abandoned <- env.abandoned + 1
  end;
  (* A node dying inside its CS already counted as an entry; the token it
     held is lost and must be regenerated by the survivors. *)
  set_in_cs env node false;
  env.backlog.(node) <- 0;
  Net.fail env.net node;
  record env ~node ~tag:"fault" (fun () -> "failed")

let recover_node env node =
  (match env.obs with
  | None -> ()
  | Some o ->
    Metrics.incr o.m_recoveries ~node;
    Span.fault_tick o.spans);
  Net.recover env.net node;
  record env ~node ~tag:"fault" (fun () -> "recovering");
  (instance env).on_recovered node

let schedule_faults env (faults : Faults.t) =
  List.iter
    (fun { Faults.at; node; recover_after } ->
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

let run ?until ?max_steps env = Engine.run ?until ?max_steps env.engine

let run_to_quiescence ?(max_steps = 50_000_000) env =
  Engine.run ~max_steps env.engine;
  if not (Engine.quiescent env.engine) then
    failwith "Runner.run_to_quiescence: exceeded max_steps"

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
