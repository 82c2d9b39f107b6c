(* Exporters: metrics snapshots and span tables rendered to standard
   observability formats. Everything returns a string — library code in
   this repo never prints (the io-hygiene lint rule bans it); callers in
   bin/ decide whether the bytes go to stdout or a file.

   Byte stability matters: the golden expect tests diff these outputs
   against checked-in fixtures, and the --jobs parity guarantee extends
   to them. Rows are emitted in snapshot order (sorted by metric name),
   nodes ascending, span events in close order — all deterministic. *)

let metric_prefix = "ocube_"

(* %.12g keeps gauge rendering stable across platforms while printing
   integral watermarks as plain integers. *)
let float_str v = Printf.sprintf "%.12g" v

(* --- Prometheus text format ----------------------------------------------- *)

let prom_labels buf ~algo ~node extra =
  Buffer.add_string buf "{algo=\"";
  Buffer.add_string buf algo;
  Buffer.add_string buf "\",node=\"";
  Buffer.add_string buf (string_of_int node);
  Buffer.add_char buf '"';
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ',';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      Buffer.add_string buf v;
      Buffer.add_char buf '"')
    extra;
  Buffer.add_string buf "} "

let prometheus (s : Metrics.snapshot) =
  let buf = Buffer.create 1024 in
  let header name help kind =
    Buffer.add_string buf
      (Printf.sprintf "# HELP %s%s %s\n# TYPE %s%s %s\n" metric_prefix name
         help metric_prefix name kind)
  in
  let sample name ~node extra value =
    Buffer.add_string buf metric_prefix;
    Buffer.add_string buf name;
    prom_labels buf ~algo:s.Metrics.s_algo ~node extra;
    Buffer.add_string buf value;
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun { Metrics.name; help; data } ->
      match data with
      | Metrics.S_counter a ->
        header name help "counter";
        Array.iteri (fun node v -> sample name ~node [] (string_of_int v)) a
      | Metrics.S_gauge a ->
        header name help "gauge";
        Array.iteri (fun node v -> sample name ~node [] (float_str v)) a
      | Metrics.S_hist a ->
        header name help "histogram";
        Array.iteri
          (fun node pairs ->
            match pairs with
            | [] -> ()
            | _ ->
              let cum = ref 0 in
              let sum = ref 0 in
              List.iter
                (fun (v, c) ->
                  cum := !cum + c;
                  sum := !sum + (v * c);
                  sample (name ^ "_bucket") ~node
                    [ ("le", string_of_int v) ]
                    (string_of_int !cum))
                pairs;
              sample (name ^ "_bucket") ~node
                [ ("le", "+Inf") ]
                (string_of_int !cum);
              sample (name ^ "_sum") ~node [] (string_of_int !sum);
              sample (name ^ "_count") ~node [] (string_of_int !cum))
          a)
    s.Metrics.rows;
  Buffer.contents buf

(* --- JSON snapshot --------------------------------------------------------- *)

let json (s : Metrics.snapshot) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"algo\":";
  Json.escape_to buf s.Metrics.s_algo;
  Buffer.add_string buf (Printf.sprintf ",\"nodes\":%d,\"metrics\":[" s.Metrics.s_n);
  List.iteri
    (fun i { Metrics.name; help; data } ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"name\":";
      Json.escape_to buf name;
      Buffer.add_string buf ",\"help\":";
      Json.escape_to buf help;
      (match data with
      | Metrics.S_counter a ->
        Buffer.add_string buf ",\"kind\":\"counter\",\"values\":[";
        Array.iteri
          (fun j v ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (string_of_int v))
          a;
        Buffer.add_char buf ']'
      | Metrics.S_gauge a ->
        Buffer.add_string buf ",\"kind\":\"gauge\",\"values\":[";
        Array.iteri
          (fun j v ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (float_str v))
          a;
        Buffer.add_char buf ']'
      | Metrics.S_hist a ->
        Buffer.add_string buf ",\"kind\":\"histogram\",\"values\":[";
        Array.iteri
          (fun j pairs ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '[';
            List.iteri
              (fun k (v, c) ->
                if k > 0 then Buffer.add_char buf ',';
                Buffer.add_string buf (Printf.sprintf "[%d,%d]" v c))
              pairs;
            Buffer.add_char buf ']')
          a;
        Buffer.add_char buf ']');
      Buffer.add_char buf '}')
    s.Metrics.rows;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* --- Chrome trace_event JSON ----------------------------------------------- *)

(* Virtual time unit -> microsecond: one simulated time unit displays as
   one millisecond in chrome://tracing / Perfetto. Rounded to integers so
   the output is byte-stable. *)
let ts time = Printf.sprintf "%d" (int_of_float (Float.round (time *. 1000.0)))

let chrome_span buf ~first (sp : Span.span) =
  let event ~name ~start ~stop ~args =
    if not !first then Buffer.add_char buf ',';
    first := false;
    Buffer.add_string buf "{\"name\":";
    Json.escape_to buf name;
    Buffer.add_string buf ",\"cat\":\"request\",\"ph\":\"X\",\"ts\":";
    Buffer.add_string buf (ts start);
    Buffer.add_string buf ",\"dur\":";
    Buffer.add_string buf (ts (stop -. start));
    Buffer.add_string buf (Printf.sprintf ",\"pid\":0,\"tid\":%d,\"args\":{" sp.Span.node);
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Json.escape_to buf k;
        Buffer.add_char buf ':';
        Buffer.add_string buf v)
      args;
    Buffer.add_string buf "}}"
  in
  let common =
    [
      ("request", string_of_int sp.Span.index);
      ("hops", string_of_int sp.Span.hops);
      ("faults", string_of_int sp.Span.faults);
      ("completed", if sp.Span.completed then "true" else "false");
    ]
  in
  (match sp.Span.enter_time with
  | Some enter_t ->
    event ~name:"wait" ~start:sp.Span.open_time ~stop:enter_t
      ~args:
        (common
        @ [
            ("queueing", float_str sp.Span.queueing);
            ("transit", float_str sp.Span.transit);
          ]);
    event ~name:"cs" ~start:enter_t ~stop:sp.Span.close_time ~args:common
  | None ->
    event ~name:"wait" ~start:sp.Span.open_time ~stop:sp.Span.close_time
      ~args:
        (common
        @ [
            ("queueing", float_str sp.Span.queueing);
            ("transit", float_str sp.Span.transit);
          ]))

type instant = { time : float; node : int; name : string; detail : string }

let chrome_instant buf ~first i =
  if not !first then Buffer.add_char buf ',';
  first := false;
  Buffer.add_string buf "{\"name\":";
  Json.escape_to buf i.name;
  Buffer.add_string buf ",\"cat\":\"trace\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
  Buffer.add_string buf (ts i.time);
  Buffer.add_string buf
    (Printf.sprintf ",\"pid\":0,\"tid\":%d,\"args\":{\"detail\":" i.node);
  Json.escape_to buf i.detail;
  Buffer.add_string buf "}}"

let chrome_trace ?(instants = []) ~spans () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  List.iter (chrome_span buf ~first) spans;
  List.iter (chrome_instant buf ~first) instants;
  Buffer.add_string buf "]}";
  Buffer.contents buf
