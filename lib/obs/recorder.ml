(* The request telemetry of both runtimes: every metric name is defined
   here, and the runner and the cluster parent call the same taps. *)

type t = {
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
  wished : float array;  (* wish time of a request not yet served; nan: none *)
  inside : Bytes.t;  (* one byte per node: inside its CS *)
  (* Busy-time integral: accumulated time during which at least one node
     was inside its CS. A span's queueing phase is the difference of this
     integral over its wait. *)
  mutable occupancy : int;
  mutable busy_acc : float;
  mutable busy_since : float;
}

let create ~n =
  let reg = Metrics.create ~n () in
  let counter name help = Metrics.counter reg ~name ~help in
  {
    reg;
    spans = Span.create ~n;
    m_wishes = counter "wishes_total" "CS wishes issued";
    m_entries = counter "cs_entries_total" "critical sections entered";
    m_messages =
      counter "messages_sent_total" "protocol messages sent, by source node";
    m_faults = counter "faults_total" "fail-stop events";
    m_recoveries = counter "recoveries_total" "node recoveries";
    m_violations =
      counter "violations_total"
        "mutual-exclusion safety violations (must stay 0)";
    m_abandoned =
      counter "abandoned_total" "requests lost to the requester's failure";
    h_hops =
      Metrics.hist reg ~name:"request_hops"
        ~help:"messages attributed to one request span";
    h_wait_ms =
      Metrics.hist reg ~name:"request_wait_ms"
        ~help:"wish-to-entry latency in milli-time-units";
    g_pending =
      Metrics.gauge reg ~name:"engine_pending_events_max"
        ~help:"event-queue depth watermark (node 0 carries the value)";
    wished = Array.make n Float.nan;
    inside = Bytes.make n '\000';
    occupancy = 0;
    busy_acc = 0.0;
    busy_since = 0.0;
  }

let registry t = t.reg

let spans t = t.spans

let busy t ~time =
  if t.occupancy > 0 then t.busy_acc +. (time -. t.busy_since) else t.busy_acc

let wish t ~node ~time =
  Metrics.incr t.m_wishes ~node;
  t.wished.(node) <- time;
  Span.open_span t.spans ~node ~time ~busy:(busy t ~time)

let enter t ~node ~time =
  (* The busy integral is read before this entry raises the occupancy:
     the queueing phase of the entering span counts only time blocked
     behind *other* nodes' critical sections. *)
  Metrics.incr t.m_entries ~node;
  Span.enter t.spans ~node ~time ~busy:(busy t ~time);
  let since = t.wished.(node) in
  if not (Float.is_nan since) then begin
    t.wished.(node) <- Float.nan;
    Metrics.observe t.h_wait_ms ~node
      (int_of_float (Float.round ((time -. since) *. 1000.0)))
  end;
  if t.occupancy = 0 then t.busy_since <- time;
  t.occupancy <- t.occupancy + 1;
  Bytes.set t.inside node '\001'

let leave_cs t ~node ~time =
  if Bytes.get t.inside node <> '\000' then begin
    Bytes.set t.inside node '\000';
    t.occupancy <- t.occupancy - 1;
    if t.occupancy = 0 then begin
      t.busy_acc <- t.busy_acc +. (time -. t.busy_since);
      t.busy_since <- 0.0
    end
  end

let exit t ~node ~time =
  leave_cs t ~node ~time;
  match Span.close t.spans ~node ~time with
  | Some sp -> Metrics.observe t.h_hops ~node sp.Span.hops
  | None -> ()

let send t ~src ~origin =
  Metrics.incr t.m_messages ~node:src;
  if origin >= 0 then Span.note_hop t.spans ~node:origin

let fault t ~node ~time =
  Metrics.incr t.m_faults ~node;
  if not (Float.is_nan t.wished.(node)) then begin
    t.wished.(node) <- Float.nan;
    Metrics.incr t.m_abandoned ~node
  end;
  leave_cs t ~node ~time;
  (* Close the victim's span first (it does not overlap its own death),
     then mark the fault on every other open span. *)
  ignore (Span.abandon t.spans ~node ~time ~busy:(busy t ~time));
  Span.fault_tick t.spans

let recover t ~node =
  Metrics.incr t.m_recoveries ~node;
  Span.fault_tick t.spans

let violation t ~node = Metrics.incr t.m_violations ~node

let pending_max t v = Metrics.set_max t.g_pending ~node:0 v
