open Types

module Make (R : Runtime.S) = struct

  type node = {
    id : node_id;
    mutable father : node_id option;  (* probable owner; None = I am the tail *)
    mutable next : node_id option;  (* distributed waiting queue link *)
    mutable requesting : bool;
    mutable token_here : bool;
    mutable in_cs : bool;
  }

  type t = {
    net : R.t;
    callbacks : callbacks;
    nodes : node array;
    mutable tokens_in_flight : int;
    mutable tokens_held : int;
    mutable nodes_in_cs : int;
  }

  let dummy_rid i = { source = i; seq = 0 }

  let node t i = t.nodes.(i)

  (* Running tallies for an O(1) [invariant_check]: these two setters are
     the only writers of [token_here] and [in_cs] after [create]. *)
  let set_token t nd b =
    if nd.token_here <> b then begin
      nd.token_here <- b;
      t.tokens_held <- (t.tokens_held + if b then 1 else -1)
    end

  let set_in_cs t nd b =
    if nd.in_cs <> b then begin
      nd.in_cs <- b;
      t.nodes_in_cs <- (t.nodes_in_cs + if b then 1 else -1)
    end

  let send_request t ~src ~dst ~origin =
    R.send t.net ~src ~dst (Message.Request { origin; rid = dummy_rid origin })

  let send_token t ~src ~dst =
    t.tokens_in_flight <- t.tokens_in_flight + 1;
    R.send t.net ~src ~dst (Message.Token { lender = None; rid = None })

  let handle_message t i ~src payload =
    ignore src;
    let nd = node t i in
    match payload with
    | Message.Request { origin; _ } -> (
      match nd.father with
      | None ->
        (* We are the tail of the queue. *)
        if nd.requesting then
          (* The requester will get the token after us. *)
          nd.next <- Some origin
        else begin
          (* Idle token owner: hand the token over directly. *)
          set_token t nd false;
          send_token t ~src:nd.id ~dst:origin
        end;
        nd.father <- Some origin
      | Some f ->
        (* Path reversal: forward towards the probable owner and adopt the
           requester as the new probable owner. *)
        send_request t ~src:nd.id ~dst:f ~origin;
        nd.father <- Some origin)
    | Message.Token _ ->
      t.tokens_in_flight <- t.tokens_in_flight - 1;
      set_token t nd true;
      set_in_cs t nd true;
      t.callbacks.on_enter nd.id
    | Message.Enquiry _ | Message.Enquiry_answer _ | Message.Test _
    | Message.Test_answer _ | Message.Anomaly _ | Message.Void _ | Message.Census _
    | Message.Census_reply _ | Message.Custody _
    | Message.Custody_answer _ | Message.Probe _
    | Message.Release | Message.Sk_request _
    | Message.Sk_privilege _ | Message.Ra_request _ | Message.Ra_reply ->
      invalid_arg "Naimi_trehel: unexpected message kind"

  let create ~net ~callbacks ~n () =
    if R.size net <> n then
      invalid_arg "Naimi_trehel.create: size mismatch";
    let t =
      {
        net;
        callbacks;
        nodes =
          Array.init n (fun i ->
              {
                id = i;
                father = (if i = 0 then None else Some 0);
                next = None;
                requesting = false;
                token_here = i = 0;
                in_cs = false;
              });
        tokens_in_flight = 0;
        tokens_held = 1;
        nodes_in_cs = 0;
      }
    in
    for i = 0 to n - 1 do
      R.set_handler net i (fun ~src payload -> handle_message t i ~src payload)
    done;
    t

  let request_cs t i =
    let nd = node t i in
    if nd.requesting || nd.in_cs then
      invalid_arg "Naimi_trehel.request_cs: node already has a pending request";
    nd.requesting <- true;
    match nd.father with
    | None ->
      (* We already own the token and nobody is queued: enter directly. *)
      set_in_cs t nd true;
      t.callbacks.on_enter nd.id
    | Some f ->
      send_request t ~src:nd.id ~dst:f ~origin:nd.id;
      nd.father <- None

  let release_cs t i =
    let nd = node t i in
    if not nd.in_cs then
      invalid_arg (Printf.sprintf "Naimi_trehel.release_cs: node %d not in CS" i);
    set_in_cs t nd false;
    nd.requesting <- false;
    t.callbacks.on_exit i;
    match nd.next with
    | Some succ ->
      nd.next <- None;
      set_token t nd false;
      send_token t ~src:nd.id ~dst:succ
    | None -> () (* keep the token *)

  let token_holders t =
    Array.to_list t.nodes
    |> List.filter_map (fun nd -> if nd.token_here then Some nd.id else None)

  let in_cs t i = (node t i).in_cs

  let holder_count t = t.tokens_held

  let in_cs_count t = t.nodes_in_cs

  let invariant_check t =
    token_verdict ~in_cs:t.nodes_in_cs ~held:t.tokens_held
      ~in_flight:t.tokens_in_flight token_holders t

  let instance t =
    {
      algo_name = "naimi-trehel";
      request_cs = request_cs t;
      release_cs = release_cs t;
      on_recovered = ignore;
      snapshot_tree =
        (fun () -> Some (Array.map (fun nd -> nd.father) t.nodes));
      token_holders = (fun () -> token_holders t);
      invariant_check = (fun () -> invariant_check t);
      repair_bound = 0.0;
    }
end

include Make (Runtime.Sim)
