(* Request spans.

   A span opens when a node's wish is issued and closes when the node
   leaves its critical section (or dies). The recorder feeds the span
   table the running integral of "some node is in its CS" time (busy
   time); the difference of that integral between two instants is
   exactly how much of the interval was spent queueing behind other
   critical sections, and the remainder of the wait is token/request
   transit. Hop counts arrive from the network tap: every message whose
   {!Ocube_mutex.Types.Message.origin} is [i] is charged to node [i]'s
   open span — a node has at most one outstanding wish, so the origin
   node identifies the span uniquely. *)

type open_span = {
  o_node : int;
  o_index : int;
  o_open : float;
  o_busy0 : float;
  mutable o_enter : float;  (* < 0.0 while still waiting *)
  mutable o_queueing : float;
  mutable o_hops : int;
  mutable o_faults : int;
}

type span = {
  node : int;
  index : int;
  open_time : float;
  enter_time : float option;
  close_time : float;
  hops : int;
  queueing : float;
  transit : float;
  service : float;
  faults : int;
  completed : bool;
}

type t = {
  n : int;
  current : open_span option array;
  mutable next_index : int;
  mutable open_spans : int;
  mutable rev_closed : span list;
}

let create ~n =
  if n < 1 then invalid_arg "Span.create: n must be >= 1";
  {
    n;
    current = Array.make n None;
    next_index = 0;
    open_spans = 0;
    rev_closed = [];
  }

let size t = t.n

let open_count t = t.open_spans

let closed_count t = List.length t.rev_closed

let closed t = List.rev t.rev_closed

let clear t =
  Array.fill t.current 0 t.n None;
  t.next_index <- 0;
  t.open_spans <- 0;
  t.rev_closed <- []

let open_span t ~node ~time ~busy =
  (match t.current.(node) with
  | Some _ -> invalid_arg (Printf.sprintf "Span.open_span: node %d already has an open span" node)
  | None -> ());
  let idx = t.next_index in
  t.next_index <- idx + 1;
  t.open_spans <- t.open_spans + 1;
  t.current.(node) <-
    Some
      {
        o_node = node;
        o_index = idx;
        o_open = time;
        o_busy0 = busy;
        o_enter = -1.0;
        o_queueing = 0.0;
        o_hops = 0;
        o_faults = 0;
      }

let note_hop t ~node =
  match t.current.(node) with
  | Some o -> o.o_hops <- o.o_hops + 1
  | None -> ()

let enter t ~node ~time ~busy =
  match t.current.(node) with
  | Some o when o.o_enter < 0.0 ->
    o.o_enter <- time;
    o.o_queueing <- busy -. o.o_busy0
  | Some _ -> invalid_arg (Printf.sprintf "Span.enter: node %d already entered" node)
  | None -> ()

let finish t o ~time ~busy ~completed =
  let entered = o.o_enter >= 0.0 in
  let queueing = if entered then o.o_queueing else busy -. o.o_busy0 in
  let wait_end = if entered then o.o_enter else time in
  let transit = Float.max 0.0 (wait_end -. o.o_open -. queueing) in
  let service = if entered then time -. o.o_enter else 0.0 in
  let span =
    {
      node = o.o_node;
      index = o.o_index;
      open_time = o.o_open;
      enter_time = (if entered then Some o.o_enter else None);
      close_time = time;
      hops = o.o_hops;
      queueing;
      transit;
      service;
      faults = o.o_faults;
      completed;
    }
  in
  t.current.(o.o_node) <- None;
  t.open_spans <- t.open_spans - 1;
  t.rev_closed <- span :: t.rev_closed;
  span

let close t ~node ~time =
  match t.current.(node) with
  | Some o when o.o_enter >= 0.0 ->
    Some (finish t o ~time ~busy:0.0 ~completed:true)
  | Some _ -> invalid_arg (Printf.sprintf "Span.close: node %d never entered its CS" node)
  | None -> None

let abandon t ~node ~time ~busy =
  match t.current.(node) with
  | Some o -> Some (finish t o ~time ~busy ~completed:false)
  | None -> None

let fault_tick t =
  Array.iter
    (function Some o -> o.o_faults <- o.o_faults + 1 | None -> ())
    t.current

let wait span = span.queueing +. span.transit

let duration span = span.close_time -. span.open_time
