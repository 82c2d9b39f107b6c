module Types = Ocube_mutex.Types

(* The child never touches stdout/stderr: its only voice is control
   frames on [sock], and its only clock is [Proc_runtime.now]. It leaves
   through [Unix._exit] so the parent's buffered state (atexit handlers,
   channel buffers inherited over fork) is never replayed. *)

let run ~me ~n ~algo ~params ~tick ~delta ~cs ~witness ~sock =
  let rt = Proc_runtime.create ~me ~n ~tick ~delta ~sock in
  let wfd = Unix.openfile witness [ Unix.O_RDWR ] 0o600 in
  let emit p = Frame.write sock (Ctrl.encode_to_parent p) in
  let inst : Types.instance option ref = ref None in
  let waiting = ref false in
  let backlog = ref 0 in
  let rec submit () =
    if !waiting then incr backlog
    else begin
      waiting := true;
      (Option.get !inst).Types.request_cs me
    end
  and on_enter node =
    if node = me then begin
      (* Kernel-enforced mutual-exclusion witness: the record lock dies
         with the process, so a SIGKILLed holder releases it without
         running a line of code. A failed try-lock is a true overlap. *)
      (try Unix.lockf wfd Unix.F_TLOCK 0
       with Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
         emit (Ctrl.Violation "witness lock already held at CS entry"));
      emit Ctrl.Enter;
      ignore
        (Proc_runtime.set_timer rt ~node:me ~delay:cs (fun () ->
             (try Unix.lockf wfd Unix.F_ULOCK 0
              with Unix.Unix_error (_, _, _) -> ());
             (* Exit goes on the wire before release_cs can send the
                token on: FIFO order on this socket is what lets the
                parent check CS intervals from merged logs. *)
             emit Ctrl.Exit;
             (Option.get !inst).Types.release_cs me;
             waiting := false;
             if !backlog > 0 then begin
               decr backlog;
               submit ()
             end))
    end
  in
  let callbacks = { Types.on_enter; on_exit = (fun _ -> ()) } in
  let module B = Spec.Build (Proc_runtime) in
  inst := Some (B.build algo ~params ~net:rt ~callbacks);
  let dec = Frame.Decoder.create () in
  let rec drain () =
    match Frame.Decoder.next dec with
    | None -> ()
    | Some raw ->
      (match Ctrl.decode_to_child raw with
      | Ctrl.Quit -> Unix._exit 0
      | Ctrl.Wish -> submit ()
      | Ctrl.Deliver { src; msg } -> Proc_runtime.deliver rt ~src msg);
      drain ()
  in
  let rec loop () =
    Proc_runtime.fire_due rt;
    let timeout =
      match Proc_runtime.next_deadline rt with
      | None -> -1.0
      | Some d -> Float.max 0.0 ((d -. Proc_runtime.now rt) *. tick)
    in
    let readable, _, _ =
      try Unix.select [ sock ] [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (match readable with
    | [] -> ()
    | _ :: _ ->
      if Frame.Decoder.read dec sock > 0 then drain ()
      else begin
        (* a torn frame at EOF raises, and leaves as a Violation below *)
        Frame.Decoder.eof dec;
        Unix._exit 0
      end);
    loop ()
  in
  try loop ()
  with e ->
    (try emit (Ctrl.Violation ("child died: " ^ Printexc.to_string e))
     with _ -> ());
    Unix._exit 2
