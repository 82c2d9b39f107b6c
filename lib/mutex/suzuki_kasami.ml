open Types
module Fdeque = Ocube_sim.Fdeque

module Make (R : Runtime.S) = struct

  type node = {
    id : node_id;
    rn : int array;  (* highest request number heard from each node *)
    mutable has_token : bool;
    mutable in_cs : bool;
    mutable requesting : bool;
    (* token state, meaningful only at the holder: *)
    mutable tq : node_id Fdeque.t;  (* token queue *)
    mutable ln : int array;  (* last served request number per node *)
  }

  type t = {
    net : R.t;
    callbacks : callbacks;
    nodes : node array;
    mutable tokens_in_flight : int;
    mutable tokens_held : int;
    mutable nodes_in_cs : int;
  }

  let node t i = t.nodes.(i)

  let n_of t = Array.length t.nodes

  (* Running tallies for an O(1) [invariant_check]: these two setters are
     the only writers of [has_token] and [in_cs] after [create]. *)
  let set_token t nd b =
    if nd.has_token <> b then begin
      nd.has_token <- b;
      t.tokens_held <- (t.tokens_held + if b then 1 else -1)
    end

  let set_in_cs t nd b =
    if nd.in_cs <> b then begin
      nd.in_cs <- b;
      t.nodes_in_cs <- (t.nodes_in_cs + if b then 1 else -1)
    end

  let broadcast_request t nd =
    let seq = nd.rn.(nd.id) in
    for j = 0 to n_of t - 1 do
      if j <> nd.id then
        R.send t.net ~src:nd.id ~dst:j (Message.Sk_request { origin = nd.id; seq })
    done

  let enter t nd =
    set_in_cs t nd true;
    t.callbacks.on_enter nd.id

  let send_token t nd dst =
    set_token t nd false;
    t.tokens_in_flight <- t.tokens_in_flight + 1;
    R.send t.net ~src:nd.id ~dst
      (Message.Sk_privilege { queue = Fdeque.to_list nd.tq; ln = nd.ln })

  (* Holder-side: after a release (or on receiving a request while idle),
     update the token queue with every node whose request is newer than the
     last one served, then pass the token to the head. *)
  let update_queue_and_pass t nd =
    if nd.has_token && (not nd.in_cs) && not nd.requesting then begin
      (* One O(n + |tq|) membership table instead of an O(n * |tq|)
         List.mem sweep. *)
      let queued = Array.make (n_of t) false in
      Fdeque.iter (fun j -> queued.(j) <- true) nd.tq;
      for j = 0 to n_of t - 1 do
        if j <> nd.id && (not queued.(j)) && nd.rn.(j) = nd.ln.(j) + 1 then
          nd.tq <- Fdeque.push_back nd.tq j
      done;
      match Fdeque.pop_front nd.tq with
      | Some (dst, rest) ->
        nd.tq <- rest;
        send_token t nd dst
      | None -> ()
    end

  let handle_message t i ~src payload =
    ignore src;
    let nd = node t i in
    match payload with
    | Message.Sk_request { origin; seq } ->
      nd.rn.(origin) <- max nd.rn.(origin) seq;
      update_queue_and_pass t nd
    | Message.Sk_privilege { queue; ln } ->
      t.tokens_in_flight <- t.tokens_in_flight - 1;
      set_token t nd true;
      nd.tq <- Fdeque.of_list queue;
      (* A sent message is a value that observers may still hold: adopt a
         copy of its array, never the array itself. *)
      nd.ln <- Array.copy ln;
      (* The token only travels towards a requester. *)
      enter t nd
    | Message.Request _ | Message.Token _ | Message.Enquiry _
    | Message.Enquiry_answer _ | Message.Test _ | Message.Test_answer _
    | Message.Anomaly _ | Message.Void _ | Message.Census _
    | Message.Census_reply _ | Message.Custody _
    | Message.Custody_answer _ | Message.Probe _
    | Message.Release | Message.Ra_request _
    | Message.Ra_reply ->
      invalid_arg "Suzuki_kasami: unexpected message kind"

  let create ~net ~callbacks ~n () =
    if R.size net <> n then invalid_arg "Suzuki_kasami.create: size mismatch";
    let t =
      {
        net;
        callbacks;
        nodes =
          Array.init n (fun i ->
              {
                id = i;
                rn = Array.make n 0;
                has_token = i = 0;
                in_cs = false;
                requesting = false;
                tq = Fdeque.empty;
                ln = Array.make n 0;
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
      invalid_arg "Suzuki_kasami.request_cs: request already pending";
    nd.requesting <- true;
    if nd.has_token then enter t nd
    else begin
      nd.rn.(i) <- nd.rn.(i) + 1;
      broadcast_request t nd
    end

  let release_cs t i =
    let nd = node t i in
    if not nd.in_cs then
      invalid_arg (Printf.sprintf "Suzuki_kasami.release_cs: node %d not in CS" i);
    set_in_cs t nd false;
    nd.requesting <- false;
    t.callbacks.on_exit i;
    nd.ln.(i) <- nd.rn.(i);
    update_queue_and_pass t nd

  let token_holders t =
    Array.to_list t.nodes
    |> List.filter_map (fun nd -> if nd.has_token then Some nd.id else None)

  let in_cs t i = (node t i).in_cs

  let holder_count t = t.tokens_held

  let in_cs_count t = t.nodes_in_cs

  let invariant_check t =
    token_verdict ~in_cs:t.nodes_in_cs ~held:t.tokens_held
      ~in_flight:t.tokens_in_flight token_holders t

  let instance t =
    {
      algo_name = "suzuki-kasami";
      request_cs = request_cs t;
      release_cs = release_cs t;
      on_recovered = ignore;
      snapshot_tree = (fun () -> None);
      token_holders = (fun () -> token_holders t);
      invariant_check = (fun () -> invariant_check t);
      repair_bound = 0.0;
    }
end

include Make (Runtime.Sim)
