module Types = Ocube_mutex.Types
module Wire = Ocube_mutex.Wire
module Metrics = Ocube_obs.Metrics
module Recorder = Ocube_obs.Recorder
module Span = Ocube_obs.Span

(* --- configuration ------------------------------------------------------ *)

type kill =
  | Kill_leader of int
  | Kill_at of { after : float; node : int }

type workload =
  | Lockstep of { rounds : int }
  | Closed_loop of { per_node : int }

type config = {
  algo : Spec.algo;
  params : Spec.params;
  tick : float;
  delta : float;
  cs : float;
  workload : workload;
  kills : kill list;
  deadline : float;
  metrics : bool;
}

let default_config ~algo ~p =
  {
    algo;
    params = Spec.default_params ~p;
    tick = 0.02;
    delta = 1.0;
    cs = 2.0;
    workload = Closed_loop { per_node = 2 };
    kills = [];
    deadline = 30.0;
    metrics = true;
  }

(* --- merged event log --------------------------------------------------- *)

type event =
  | Ev_wish of int
  | Ev_enter of int
  | Ev_exit of int
  | Ev_send of { src : int; dst : int; category : string }
  | Ev_drop of { src : int; dst : int }
  | Ev_kill of int
  | Ev_dead of int
  | Ev_violation of { node : int; info : string }

let pp_event ppf (t, ev) =
  let p fmt = Format.fprintf ppf fmt in
  match ev with
  | Ev_wish i -> p "%.6f wish %d" t i
  | Ev_enter i -> p "%.6f enter %d" t i
  | Ev_exit i -> p "%.6f exit %d" t i
  | Ev_send { src; dst; category } -> p "%.6f send %d->%d %s" t src dst category
  | Ev_drop { src; dst } -> p "%.6f drop %d->%d" t src dst
  | Ev_kill i -> p "%.6f kill %d" t i
  | Ev_dead i -> p "%.6f dead %d" t i
  | Ev_violation { node; info } -> p "%.6f violation %d %s" t node info

type outcome = {
  n : int;
  entries : int;
  wishes : int;
  served : int;
  abandoned : int;
  killed : int list;
  violations : (int * string) list;
  drained : bool;
  clean_exit : bool;
  digests : string array;
  events : (float * event) list;
  snapshot : Metrics.snapshot option;
  spans : Span.span list;
}

let oracle_clean o =
  match o.violations with
  | (node, info) :: _ -> Error (Printf.sprintf "node %d: %s" node info)
  | [] ->
    if not o.drained then
      Error
        (Printf.sprintf "undrained: %d of %d wishes unserved at deadline"
           (o.wishes - o.served - o.abandoned)
           o.wishes)
    else if not o.clean_exit then Error "a surviving child exited non-zero"
    else Ok ()

let write_log oc o =
  let ppf = Format.formatter_of_out_channel oc in
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_event e) o.events;
  Format.pp_print_flush ppf ()

(* --- parent ------------------------------------------------------------- *)

type child = {
  idx : int;
  pid : int;
  fd : Unix.file_descr;
  dec : Frame.Decoder.t;
  mutable alive : bool;  (* process believed running *)
  mutable open_fd : bool;  (* stream not yet at EOF *)
  mutable digest : string;
  mutable outstanding : int;  (* wishes issued, CS not yet exited *)
  mutable budget : int;  (* closed-loop wishes still to issue *)
  mutable status : Unix.process_status option;
}

exception Done

let run cfg =
  let n = 1 lsl cfg.params.p in
  if cfg.kills <> [] && not (Spec.fault_tolerant cfg.algo && cfg.params.ft)
  then
    invalid_arg
      "Cluster.run: kill schedules need a fault-tolerant algorithm with ft";
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let witness = Filename.temp_file "ocmutex_witness" ".lock" in
  let t0 = Unix.gettimeofday () in
  let now () = Unix.gettimeofday () -. t0 in
  (* -- observation state -- *)
  let events = ref [] in
  let push ev = events := (now (), ev) :: !events in
  let recorder =
    if cfg.metrics then begin
      let r = Recorder.create ~n in
      Metrics.set_algo (Recorder.registry r) (Spec.name cfg.algo);
      Some r
    end
    else None
  in
  (* The recorder's clock is simulated time: wall seconds over the tick. *)
  let tap f node =
    match recorder with
    | None -> ()
    | Some r -> f r ~node ~time:(now () /. cfg.tick)
  in
  let entries = ref 0 in
  let wishes = ref 0 in
  let served = ref 0 in
  let abandoned = ref 0 in
  let killed = ref [] in
  let violations = ref [] in
  let in_cs = ref [] in
  let enter_count = ref 0 in
  let pending_kills = ref [] in
  let drained = ref false in
  (* -- children -- *)
  let spawn i earlier =
    let parent_fd, child_fd =
      Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
    in
    match Unix.fork () with
    | 0 ->
      Unix.close parent_fd;
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        earlier;
      Node_main.run ~me:i ~n ~algo:cfg.algo ~params:cfg.params ~tick:cfg.tick
        ~delta:cfg.delta ~cs:cfg.cs ~witness ~sock:child_fd;
      assert false
    | pid ->
      Unix.close child_fd;
      {
        idx = i;
        pid;
        fd = parent_fd;
        dec = Frame.Decoder.create ();
        alive = true;
        open_fd = true;
        digest = "";
        outstanding = 0;
        budget = 0;
        status = None;
      }
  in
  let children =
    let acc = ref [] in
    for i = 0 to n - 1 do
      acc := spawn i !acc :: !acc
    done;
    Array.of_list (List.rev !acc)
  in
  let finally () =
    Array.iter
      (fun c ->
        if c.status = None then begin
          (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
          match Unix.waitpid [] c.pid with
          | _, st -> c.status <- Some st
          | exception Unix.Unix_error _ -> ()
        end;
        if c.open_fd then begin
          c.open_fd <- false;
          try Unix.close c.fd with Unix.Unix_error _ -> ()
        end)
      children;
    (try Sys.remove witness with Sys_error _ -> ());
    ignore (Sys.signal Sys.sigpipe prev_sigpipe)
  in
  Fun.protect ~finally @@ fun () ->
  let violate node info =
    violations := (node, info) :: !violations;
    Option.iter (fun r -> Recorder.violation r ~node) recorder;
    push (Ev_violation { node; info })
  in
  let reap ?(block = false) c =
    if c.status = None then
      match Unix.waitpid (if block then [] else [ Unix.WNOHANG ]) c.pid with
      | 0, _ -> ()
      | _, st -> c.status <- Some st
      | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
        c.status <- Some (Unix.WEXITED 0)
  in
  let to_child c frame =
    if c.alive then (
      try
        Frame.write c.fd (Ctrl.encode_to_child frame);
        true
      with
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        false)
    else false
  in
  let wish c =
    if to_child c Ctrl.Wish then begin
      incr wishes;
      c.outstanding <- c.outstanding + 1;
      tap Recorder.wish c.idx;
      push (Ev_wish c.idx)
    end
  in
  (* lockstep: the wish sequence runs one at a time in node order *)
  let ls_queue =
    ref
      (match cfg.workload with
      | Lockstep { rounds } ->
        List.concat (List.init rounds (fun _ -> List.init n Fun.id))
      | Closed_loop _ -> [])
  in
  let rec lockstep_next () =
    match !ls_queue with
    | [] -> ()
    | i :: rest ->
      ls_queue := rest;
      if children.(i).alive then wish children.(i) else lockstep_next ()
  in
  let after_exit c =
    match cfg.workload with
    | Lockstep _ -> lockstep_next ()
    | Closed_loop _ ->
      if c.alive && c.budget > 0 then begin
        c.budget <- c.budget - 1;
        wish c
      end
  in
  (* A node that will never speak again: its unserved wishes are
     abandoned, and its CS interval (if any) ended with the process —
     the kernel released the witness lock at death. *)
  let write_off c =
    tap Recorder.fault c.idx;
    let had_outstanding = c.outstanding > 0 in
    abandoned := !abandoned + c.outstanding;
    c.outstanding <- 0;
    c.budget <- 0;
    in_cs := List.filter (fun i -> i <> c.idx) !in_cs;
    match cfg.workload with
    | Lockstep _ -> if had_outstanding then lockstep_next ()
    | Closed_loop _ -> ()
  in
  let leader_kills =
    List.filter_map (function Kill_leader k -> Some k | _ -> None) cfg.kills
  in
  let handle_frame c raw =
    match Ctrl.decode_to_parent raw with
    | Ctrl.Send { dst; msg } ->
      c.digest <- Wire.mix_raw c.digest ~dst msg;
      let category, origin =
        (* observability only: the payload is routed opaquely, so a
           catch-all cannot drop a message *)
        (match Wire.decode msg with
         | m -> (Types.Message.category m, Types.Message.origin m)
         | exception Wire.Corrupt e ->
           violate c.idx ("corrupt payload: " ^ e);
           ("corrupt", -1))
        [@ocube.lint.allow "handler-totality"]
      in
      Option.iter (fun r -> Recorder.send r ~src:c.idx ~origin) recorder;
      push (Ev_send { src = c.idx; dst; category });
      if dst < 0 || dst >= n then violate c.idx "send to out-of-range node"
      else begin
        let d = children.(dst) in
        if not (to_child d (Ctrl.Deliver { src = c.idx; msg })) then
          push (Ev_drop { src = c.idx; dst })
      end
    | Ctrl.Enter ->
      incr entries;
      incr enter_count;
      tap Recorder.enter c.idx;
      (match !in_cs with
      | [] -> ()
      | other :: _ ->
        violate c.idx
          (Printf.sprintf "CS overlap with node %d in merged log" other));
      in_cs := c.idx :: !in_cs;
      push (Ev_enter c.idx);
      if List.mem !enter_count leader_kills then
        pending_kills := c.idx :: !pending_kills
    | Ctrl.Exit ->
      incr served;
      c.outstanding <- max 0 (c.outstanding - 1);
      in_cs := List.filter (fun i -> i <> c.idx) !in_cs;
      tap Recorder.exit c.idx;
      push (Ev_exit c.idx);
      after_exit c
    | Ctrl.Violation info -> violate c.idx info
  in
  let drain_decoder c =
    let rec go () =
      match Frame.Decoder.next c.dec with
      | Some raw ->
        handle_frame c raw;
        go ()
      | None -> ()
    in
    go ()
  in
  let scratch = Bytes.create 8192 in
  let on_eof ~expected c =
    c.open_fd <- false;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    if Frame.Decoder.buffered c.dec > 0 then
      violate c.idx "stream ended inside a frame";
    if c.alive then begin
      c.alive <- false;
      reap ~block:true c;
      if not expected then begin
        push (Ev_dead c.idx);
        (match c.status with
        | Some (Unix.WEXITED 0) | None -> ()
        | Some _ -> violate c.idx "child exited abnormally");
        write_off c
      end
    end
  in
  let read_child ~expected_eof c =
    match
      try Unix.read c.fd scratch 0 (Bytes.length scratch) with
      | Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> -1
      (* a child that _exits with data still queued resets the socket;
         for the merged log that's just the end of its stream *)
      | Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
    with
    | 0 -> on_eof ~expected:expected_eof c
    | len when len > 0 ->
      Frame.Decoder.feed c.dec (Bytes.unsafe_to_string scratch) 0 len;
      drain_decoder c
    | _ -> ()
  in
  (* SIGKILL, reap, then drain everything the node said before dying so
     the merged log is causally complete up to the kill point. *)
  let kill_child c =
    if c.alive then begin
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap ~block:true c;
      c.alive <- false;
      killed := c.idx :: !killed;
      push (Ev_kill c.idx);
      while c.open_fd do
        match
          try Unix.read c.fd scratch 0 (Bytes.length scratch)
          with Unix.Unix_error ((Unix.EINTR | Unix.ECONNRESET), _, _) -> 0
        with
        | 0 ->
          c.open_fd <- false;
          (try Unix.close c.fd with Unix.Unix_error _ -> ());
          if Frame.Decoder.buffered c.dec > 0 then
            violate c.idx "stream ended inside a frame"
        | len ->
          Frame.Decoder.feed c.dec (Bytes.unsafe_to_string scratch) 0 len;
          drain_decoder c
      done;
      write_off c
    end
  in
  let timed_kills =
    ref
      (List.filter_map
         (function
           | Kill_at { after; node } ->
             if node < 0 || node >= n then
               invalid_arg "Cluster.run: kill node out of range"
             else Some (after, node)
           | Kill_leader _ -> None)
         cfg.kills
      |> List.sort (fun (a, _) (b, _) -> Float.compare a b))
  in
  (* the kill schedule is part of the experiment: a run is not over
     while a timed kill is still pending, even if the workload drained *)
  let finished () =
    !ls_queue = []
    && !timed_kills = []
    && Array.for_all (fun c -> c.budget = 0 && c.outstanding = 0) children
  in
  (* -- kick off the workload, then run the select loop -- *)
  (match cfg.workload with
  | Lockstep _ -> lockstep_next ()
  | Closed_loop { per_node } ->
    Array.iter
      (fun c ->
        c.budget <- per_node;
        if c.budget > 0 then begin
          c.budget <- c.budget - 1;
          wish c
        end)
      children);
  (try
     while true do
       while !pending_kills <> [] do
         match !pending_kills with
         | [] -> ()
         | i :: rest ->
           pending_kills := rest;
           kill_child children.(i)
       done;
       let t = now () in
       (let rec due () =
          match !timed_kills with
          | (after, node) :: rest when after <= t ->
            timed_kills := rest;
            kill_child children.(node);
            due ()
          | _ -> ()
        in
        due ());
       if finished () then begin
         drained := true;
         raise Done
       end;
       if t > cfg.deadline then raise Done;
       let open_children =
         Array.to_list children |> List.filter (fun c -> c.open_fd)
       in
       if open_children = [] then raise Done;
       let timeout =
         let poll = 0.05 in
         match !timed_kills with
         | (after, _) :: _ -> Float.max 0.0 (Float.min poll (after -. t))
         | [] -> poll
       in
       let readable, _, _ =
         try Unix.select (List.map (fun c -> c.fd) open_children) [] [] timeout
         with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
       in
       (* memq: a file_descr is an immediate, and select returns the very
          values it was handed *)
       List.iter
         (fun c ->
           if c.open_fd && List.memq c.fd readable then
             read_child ~expected_eof:false c)
         open_children
     done
   with Done -> ());
  (* -- orderly shutdown: Quit everyone, drain streams, reap -- *)
  Array.iter (fun c -> if c.alive then ignore (to_child c Ctrl.Quit)) children;
  let quit_deadline = now () +. 5.0 in
  let rec drain_all () =
    let open_children =
      Array.to_list children |> List.filter (fun c -> c.open_fd)
    in
    if open_children <> [] && now () < quit_deadline then begin
      let readable, _, _ =
        try Unix.select (List.map (fun c -> c.fd) open_children) [] [] 0.1
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun c ->
          if c.open_fd && List.memq c.fd readable then
            read_child ~expected_eof:true c)
        open_children;
      drain_all ()
    end
  in
  drain_all ();
  Array.iter
    (fun c ->
      if c.status = None then begin
        (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap ~block:true c
      end)
    children;
  let clean_exit =
    Array.for_all
      (fun c ->
        List.mem c.idx !killed
        || match c.status with Some (Unix.WEXITED 0) -> true | _ -> false)
      children
  in
  {
    n;
    entries = !entries;
    wishes = !wishes;
    served = !served;
    abandoned = !abandoned;
    killed = List.rev !killed;
    violations = List.rev !violations;
    drained = !drained;
    clean_exit;
    digests = Array.map (fun c -> c.digest) children;
    events = List.rev !events;
    snapshot = Option.map (fun r -> Metrics.snapshot (Recorder.registry r)) recorder;
    spans =
      Option.fold ~none:[] ~some:(fun r -> Span.closed (Recorder.spans r)) recorder;
  }
