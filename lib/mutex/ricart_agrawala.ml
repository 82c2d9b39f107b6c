open Types

module Make (R : Runtime.S) = struct

  type node = {
    id : node_id;
    mutable clock : int;  (* Lamport clock *)
    mutable requesting : bool;
    mutable req_clock : int;  (* timestamp of our pending request *)
    mutable replies_missing : int;
    mutable in_cs : bool;
    mutable deferred : node_id list;  (* replies withheld until exit *)
  }

  type t = {
    net : R.t;
    callbacks : callbacks;
    nodes : node array;
    mutable nodes_in_cs : int;
  }

  let node t i = t.nodes.(i)

  let n_of t = Array.length t.nodes

  (* A running tally for an O(1) [invariant_check]: the only writer of
     [in_cs] after [create]. *)
  let set_in_cs t nd b =
    if nd.in_cs <> b then begin
      nd.in_cs <- b;
      t.nodes_in_cs <- (t.nodes_in_cs + if b then 1 else -1)
    end

  let enter t nd =
    set_in_cs t nd true;
    t.callbacks.on_enter nd.id

  (* Our pending request has priority over an incoming one iff its
     (clock, id) pair is smaller. *)
  let has_priority nd ~origin ~clock =
    nd.requesting
    && (nd.req_clock < clock || (nd.req_clock = clock && nd.id < origin))

  let handle_message t i ~src payload =
    let nd = node t i in
    match payload with
    | Message.Ra_request { origin; clock } ->
      nd.clock <- max nd.clock clock + 1;
      if nd.in_cs || has_priority nd ~origin ~clock then
        nd.deferred <- origin :: nd.deferred
      else R.send t.net ~src:nd.id ~dst:origin Message.Ra_reply
    | Message.Ra_reply ->
      ignore src;
      nd.replies_missing <- nd.replies_missing - 1;
      if nd.replies_missing = 0 && nd.requesting && not nd.in_cs then enter t nd
    | Message.Request _ | Message.Token _ | Message.Enquiry _
    | Message.Enquiry_answer _ | Message.Test _ | Message.Test_answer _
    | Message.Anomaly _ | Message.Void _ | Message.Census _
    | Message.Census_reply _ | Message.Custody _
    | Message.Custody_answer _ | Message.Probe _
    | Message.Release | Message.Sk_request _
    | Message.Sk_privilege _ ->
      invalid_arg "Ricart_agrawala: unexpected message kind"

  let create ~net ~callbacks ~n () =
    if R.size net <> n then invalid_arg "Ricart_agrawala.create: size mismatch";
    let t =
      {
        net;
        callbacks;
        nodes =
          Array.init n (fun i ->
              {
                id = i;
                clock = 0;
                requesting = false;
                req_clock = 0;
                replies_missing = 0;
                in_cs = false;
                deferred = [];
              });
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
      invalid_arg "Ricart_agrawala.request_cs: request already pending";
    nd.requesting <- true;
    nd.clock <- nd.clock + 1;
    nd.req_clock <- nd.clock;
    let n = n_of t in
    if n = 1 then enter t nd
    else begin
      nd.replies_missing <- n - 1;
      for j = 0 to n - 1 do
        if j <> i then
          R.send t.net ~src:i ~dst:j
            (Message.Ra_request { origin = i; clock = nd.req_clock })
      done
    end

  let release_cs t i =
    let nd = node t i in
    if not nd.in_cs then
      invalid_arg
        (Printf.sprintf "Ricart_agrawala.release_cs: node %d not in CS" i);
    set_in_cs t nd false;
    nd.requesting <- false;
    t.callbacks.on_exit i;
    let waiting = List.rev nd.deferred in
    nd.deferred <- [];
    List.iter (fun j -> R.send t.net ~src:i ~dst:j Message.Ra_reply) waiting

  let deferred t i = (node t i).deferred

  let in_cs t i = (node t i).in_cs

  let in_cs_count t = t.nodes_in_cs

  let invariant_check t =
    if t.nodes_in_cs > 1 then Error "mutual exclusion violated: >1 node in CS"
    else Ok ()

  let instance t =
    {
      algo_name = "ricart-agrawala";
      request_cs = request_cs t;
      release_cs = release_cs t;
      on_recovered = ignore;
      snapshot_tree = (fun () -> None);
      token_holders = (fun () -> []);
      invariant_check = (fun () -> invariant_check t);
      repair_bound = 0.0;
    }
end

include Make (Runtime.Sim)
