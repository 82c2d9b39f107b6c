open Types

module Make (R : Runtime.S) = struct
  type t = {
    net : R.t;
    callbacks : callbacks;
    waiting : node_id Queue.t;  (* coordinator state *)
    mutable busy : bool;  (* token granted and not yet released *)
    mutable holder : node_id option;  (* who is in CS *)
    in_cs : bool array;
    mutable nodes_in_cs : int;
  }

  let coordinator = 0

  let dummy_rid i = { source = i; seq = 0 }

  (* A running tally for an O(1) [invariant_check]: the only writer of
     [in_cs] after [create]. *)
  let set_in_cs t i b =
    if t.in_cs.(i) <> b then begin
      t.in_cs.(i) <- b;
      t.nodes_in_cs <- (t.nodes_in_cs + if b then 1 else -1)
    end

  let grant t dst =
    t.busy <- true;
    if dst = coordinator then begin
      t.holder <- Some coordinator;
      set_in_cs t coordinator true;
      t.callbacks.on_enter coordinator
    end
    else
      R.send t.net ~src:coordinator ~dst
        (Message.Token { lender = Some coordinator; rid = None })

  let next_grant t =
    if (not t.busy) && not (Queue.is_empty t.waiting) then
      grant t (Queue.pop t.waiting)

  let handle_message t i ~src payload =
    match payload with
    | Message.Request { origin; _ } ->
      assert (i = coordinator);
      Queue.push origin t.waiting;
      next_grant t
    | Message.Token _ ->
      t.holder <- Some i;
      set_in_cs t i true;
      t.callbacks.on_enter i
    | Message.Release ->
      assert (i = coordinator);
      ignore src;
      t.busy <- false;
      t.holder <- None;
      next_grant t
    | Message.Enquiry _ | Message.Enquiry_answer _ | Message.Test _
    | Message.Test_answer _ | Message.Anomaly _ | Message.Void _
    | Message.Census _ | Message.Census_reply _ | Message.Custody _
    | Message.Custody_answer _ | Message.Probe _
    | Message.Sk_request _
    | Message.Sk_privilege _ | Message.Ra_request _ | Message.Ra_reply ->
      invalid_arg "Central: unexpected message kind"

  let create ~net ~callbacks ~n () =
    if R.size net <> n then invalid_arg "Central.create: size mismatch";
    let t =
      {
        net;
        callbacks;
        waiting = Queue.create ();
        busy = false;
        holder = None;
        in_cs = Array.make n false;
        nodes_in_cs = 0;
      }
    in
    for i = 0 to n - 1 do
      R.set_handler net i (fun ~src payload -> handle_message t i ~src payload)
    done;
    t

  let request_cs t i =
    if i = coordinator then begin
      Queue.push coordinator t.waiting;
      next_grant t
    end
    else
      R.send t.net ~src:i ~dst:coordinator
        (Message.Request { origin = i; rid = dummy_rid i })

  let release_cs t i =
    if not t.in_cs.(i) then
      invalid_arg (Printf.sprintf "Central.release_cs: node %d not in CS" i);
    set_in_cs t i false;
    t.callbacks.on_exit i;
    if i = coordinator then begin
      t.busy <- false;
      t.holder <- None;
      next_grant t
    end
    else R.send t.net ~src:i ~dst:coordinator Message.Release

  let queue_length t = Queue.length t.waiting

  let in_cs t i = t.in_cs.(i)

  let in_cs_count t = t.nodes_in_cs

  let invariant_check t =
    if t.nodes_in_cs > 1 then Error "mutual exclusion violated: >1 node in CS"
    else Ok ()

  let instance t =
    {
      algo_name = "central";
      request_cs = request_cs t;
      release_cs = release_cs t;
      on_recovered = ignore;
      snapshot_tree = (fun () -> None);
      token_holders =
        (fun () -> match t.holder with Some h -> [ h ] | None -> []);
      invariant_check = (fun () -> invariant_check t);
      repair_bound = 0.0;
    }
end

include Make (Runtime.Sim)
