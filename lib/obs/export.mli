(** Exporters: observability data rendered to standard formats.

    Every exporter returns a string — library code never prints (the
    io-hygiene lint rule enforces this); [bin/ocmutex] routes the bytes
    to stdout or to the [--metrics]/[--trace-out] files. Output is
    byte-deterministic for a given snapshot/span list: rows in metric
    name order, nodes ascending, span events in close order. The golden
    expect tests under [test/obs/] pin the exact bytes. *)

val prometheus : Metrics.snapshot -> string
(** Prometheus text exposition format. Counters and gauges emit one
    sample per node with [algo]/[node] labels; histograms emit
    cumulative [_bucket{le=...}] samples over the distinct recorded
    values plus [_sum]/[_count] (nodes with no observations are
    omitted). All metric names carry the [ocube_] prefix. *)

val json : Metrics.snapshot -> string
(** The snapshot as one JSON document:
    [{"algo": ..., "nodes": n, "metrics": [{"name", "help", "kind",
    "values"}, ...]}]. Histogram values are per-node arrays of
    [[value, count]] pairs. *)

type instant = { time : float; node : int; name : string; detail : string }
(** A point event on a node's track: [name] is its kind, [detail] the
    rendered text. *)

val chrome_trace : ?instants:instant list -> spans:Span.span list -> unit -> string
(** Chrome [trace_event] JSON (load in [chrome://tracing] or Perfetto).
    Each span becomes complete ("X") events on track [tid = node]: a
    [wait] slice from wish to CS entry (args carry hops and the
    queueing/transit split) and a [cs] slice from entry to exit; spans
    that never entered emit a single [wait] slice. Instants, when given,
    follow as instant ("i") events with the detail in [args]. One
    simulated time unit displays as one millisecond. *)
