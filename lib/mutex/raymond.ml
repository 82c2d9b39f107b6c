open Types

module Make (R : Runtime.S) = struct

  type node = {
    id : node_id;
    mutable holder : node_id;  (* self when we hold (or are about to) *)
    mutable using : bool;
    mutable asked : bool;
    request_q : node_id Queue.t;  (* neighbours (or self) wanting the token *)
  }

  type t = {
    net : R.t;
    callbacks : callbacks;
    nodes : node array;
    mutable tokens_in_flight : int;
    mutable self_holders : int;  (* nodes with [holder = id] *)
    mutable nodes_in_cs : int;  (* nodes with [using] *)
  }

  (* Raymond's REQUEST carries no payload; reuse the shared Request
     constructor with a dummy rid. *)
  let dummy_rid i = { source = i; seq = 0 }

  let node t i = t.nodes.(i)

  (* Running tallies for an O(1) [invariant_check]: these two setters are
     the only writers of [holder] and [using] after [create]. *)
  let set_holder t nd h =
    let was = nd.holder = nd.id and now = h = nd.id in
    nd.holder <- h;
    if was <> now then t.self_holders <- (t.self_holders + if now then 1 else -1)

  let set_using t nd b =
    if nd.using <> b then begin
      nd.using <- b;
      t.nodes_in_cs <- (t.nodes_in_cs + if b then 1 else -1)
    end

  let send_request t ~src ~dst =
    R.send t.net ~src ~dst (Message.Request { origin = src; rid = dummy_rid src })

  let send_token t ~src ~dst =
    t.tokens_in_flight <- t.tokens_in_flight + 1;
    R.send t.net ~src ~dst (Message.Token { lender = None; rid = None })

  (* The core of Raymond's algorithm: when we hold the token and are not
     using it, grant it to the head of the queue. *)
  let rec assign_privilege t nd =
    if nd.holder = nd.id && (not nd.using) && not (Queue.is_empty nd.request_q)
    then begin
      let head = Queue.pop nd.request_q in
      if head = nd.id then begin
        set_using t nd true;
        t.callbacks.on_enter nd.id
      end
      else begin
        set_holder t nd head;
        nd.asked <- false;
        send_token t ~src:nd.id ~dst:head;
        (* If others are still waiting here, immediately ask for the token
           back. *)
        make_request t nd
      end
    end

  and make_request t nd =
    if nd.holder <> nd.id && (not (Queue.is_empty nd.request_q)) && not nd.asked
    then begin
      nd.asked <- true;
      send_request t ~src:nd.id ~dst:nd.holder
    end

  let handle_message t i ~src payload =
    let nd = node t i in
    match payload with
    | Message.Request _ ->
      Queue.push src nd.request_q;
      if nd.holder = nd.id then assign_privilege t nd else make_request t nd
    | Message.Token _ ->
      t.tokens_in_flight <- t.tokens_in_flight - 1;
      set_holder t nd nd.id;
      assign_privilege t nd
    | Message.Enquiry _ | Message.Enquiry_answer _ | Message.Test _
    | Message.Test_answer _ | Message.Anomaly _ | Message.Void _ | Message.Census _
    | Message.Census_reply _ | Message.Custody _
    | Message.Custody_answer _ | Message.Release | Message.Sk_request _
    | Message.Sk_privilege _ | Message.Ra_request _ | Message.Ra_reply ->
      invalid_arg "Raymond: unexpected message kind"

  let create ~net ~callbacks ~tree () =
    let n = Array.length tree in
    if R.size net <> n then
      invalid_arg "Raymond.create: tree size differs from network size";
    (match Ocube_topology.Static_tree.validate tree with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Raymond.create: " ^ msg));
    let holder_of i =
      (* Initially every holder pointer aims at the father (towards the
         root, which holds the token). *)
      match tree.(i) with None -> i | Some f -> f
    in
    let t =
      {
        net;
        callbacks;
        nodes =
          Array.init n (fun i ->
              {
                id = i;
                holder = holder_of i;
                using = false;
                asked = false;
                request_q = Queue.create ();
              });
        tokens_in_flight = 0;
        self_holders = 1 (* the root's; the tree was validated above *);
        nodes_in_cs = 0;
      }
    in
    for i = 0 to n - 1 do
      R.set_handler net i (fun ~src payload -> handle_message t i ~src payload)
    done;
    t

  let request_cs t i =
    let nd = node t i in
    Queue.push nd.id nd.request_q;
    if nd.holder = nd.id then assign_privilege t nd else make_request t nd

  let release_cs t i =
    let nd = node t i in
    if not nd.using then
      invalid_arg (Printf.sprintf "Raymond.release_cs: node %d not in CS" i);
    set_using t nd false;
    t.callbacks.on_exit i;
    assign_privilege t nd

  let holder t i = (node t i).holder

  let token_holders t =
    Array.to_list t.nodes
    |> List.filter_map (fun nd ->
           if nd.holder = nd.id then Some nd.id else None)

  let queue_length t i = Queue.length (node t i).request_q

  let in_cs t i = (node t i).using

  let holder_count t = t.self_holders

  let in_cs_count t = t.nodes_in_cs

  let invariant_check t =
    (* Exactly one node may believe it is on the token side with the token
       actually present; when the token is in flight both ends point at each
       other transiently. We check the strong invariant only when no token is
       in flight. At no instant may two nodes be self-holders. *)
    let held = t.self_holders in
    if t.nodes_in_cs > 1 then Error "mutual exclusion violated: >1 node using"
    else if held > 1 then Error (holders_error (token_holders t))
    else if t.tokens_in_flight = 0 && held <> 1 then
      Error (Printf.sprintf "%d self-holders with no token in flight" held)
    else if t.tokens_in_flight + held < 1 then Error "token vanished"
    else Ok ()

  let instance t =
    {
      algo_name = "raymond";
      request_cs = request_cs t;
      release_cs = release_cs t;
      on_recovered = ignore;
      snapshot_tree = (fun () -> None);
      token_holders = (fun () -> token_holders t);
      invariant_check = (fun () -> invariant_check t);
    }
end

include Make (Runtime.Sim)
