open Types
module Opencube = Ocube_topology.Opencube

type rule =
  | Opencube_rule
  | Raymond_rule
  | Always_transit
  | Custom of (self:node_id -> origin:node_id -> power:int -> [ `Transit | `Proxy ])

module Make (R : Runtime.S) = struct

  type pending = Wish | Preq of node_id

  type node = {
    id : node_id;
    mutable father : node_id option;
    mutable token_here : bool;
    mutable asking : bool;
    mutable in_cs : bool;
    mutable lender : node_id;
    mutable mandator : node_id option;
    queue : pending Queue.t;
  }

  type t = {
    net : R.t;
    callbacks : callbacks;
    rule : rule;
    pmax : int;  (* log2 n when n is a power of two, else -1 *)
    nodes : node array;
    mutable tokens_in_flight : int;
    mutable tokens_held : int;
    mutable nodes_in_cs : int;
  }

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

  let dummy_rid i = { source = i; seq = 0 }

  let power_of t nd =
    match nd.father with
    | None -> t.pmax
    | Some f -> Opencube.dist nd.id f - 1

  let behaviour t nd ~origin =
    match t.rule with
    | Opencube_rule ->
      if Opencube.dist nd.id origin = power_of t nd then `Transit else `Proxy
    | Raymond_rule -> if nd.token_here then `Transit else `Proxy
    | Always_transit -> `Transit
    | Custom f -> f ~self:nd.id ~origin ~power:(power_of t nd)

  let send_request t ~src ~dst ~origin =
    R.send t.net ~src ~dst (Message.Request { origin; rid = dummy_rid origin })

  let send_token t ~src ~dst ~lender =
    t.tokens_in_flight <- t.tokens_in_flight + 1;
    R.send t.net ~src ~dst (Message.Token { lender; rid = None })

  let rec drain t nd =
    while (not nd.asking) && not (Queue.is_empty nd.queue) do
      match Queue.pop nd.queue with
      | Wish -> process_wish t nd
      | Preq origin -> process_request t nd ~origin
    done

  and process_wish t nd =
    nd.asking <- true;
    if nd.token_here then begin
      nd.lender <- nd.id;
      set_in_cs t nd true;
      t.callbacks.on_enter nd.id
    end
    else begin
      nd.mandator <- Some nd.id;
      match nd.father with
      | Some f -> send_request t ~src:nd.id ~dst:f ~origin:nd.id
      | None -> () (* token is in flight back to us; the receipt will serve us *)
    end

  and process_request t nd ~origin =
    let j = origin in
    match behaviour t nd ~origin with
    | `Transit ->
      (if nd.token_here then begin
         send_token t ~src:nd.id ~dst:j ~lender:None;
         set_token t nd false
       end
       else
         match nd.father with
         | Some f -> send_request t ~src:nd.id ~dst:f ~origin:j
         | None -> failwith "Generic_scheme: root without token processed a request");
      nd.father <- Some j
    | `Proxy ->
      nd.asking <- true;
      if nd.token_here then begin
        send_token t ~src:nd.id ~dst:j ~lender:(Some nd.id);
        set_token t nd false
      end
      else begin
        nd.mandator <- Some j;
        match nd.father with
        | Some f -> send_request t ~src:nd.id ~dst:f ~origin:nd.id
        | None -> failwith "Generic_scheme: root without token became proxy"
      end

  and receive_token t nd ~from_ ~lender =
    t.tokens_in_flight <- t.tokens_in_flight - 1;
    match nd.mandator with
    | Some m when m = nd.id ->
      set_token t nd true;
      (match lender with
      | None ->
        nd.lender <- nd.id;
        nd.father <- None
      | Some l ->
        nd.lender <- l;
        nd.father <- Some from_);
      nd.mandator <- None;
      set_in_cs t nd true;
      t.callbacks.on_enter nd.id
    | Some m -> (
      nd.mandator <- None;
      match lender with
      | None ->
        nd.father <- None;
        send_token t ~src:nd.id ~dst:m ~lender:(Some nd.id)
        (* asking remains true until the token returns *)
      | Some l ->
        nd.father <- Some from_;
        send_token t ~src:nd.id ~dst:m ~lender:(Some l);
        nd.asking <- false;
        drain t nd)
    | None ->
      (* Return of the token after a loan. *)
      set_token t nd true;
      nd.lender <- nd.id;
      nd.asking <- false;
      drain t nd

  let handle_message t i ~src payload =
    let nd = node t i in
    match payload with
    | Message.Request { origin; _ } ->
      if nd.asking then Queue.push (Preq origin) nd.queue
      else process_request t nd ~origin
    | Message.Token { lender; _ } -> receive_token t nd ~from_:src ~lender
    | Message.Enquiry _ | Message.Enquiry_answer _ | Message.Test _
    | Message.Test_answer _ | Message.Anomaly _ | Message.Void _ | Message.Census _
    | Message.Census_reply _ | Message.Custody _
    | Message.Custody_answer _ | Message.Probe _
    | Message.Release | Message.Sk_request _
    | Message.Sk_privilege _ | Message.Ra_request _ | Message.Ra_reply ->
      invalid_arg "Generic_scheme: unexpected message kind"

  let create ~net ~callbacks ~tree ~rule () =
    let n = Array.length tree in
    if R.size net <> n then invalid_arg "Generic_scheme.create: size mismatch";
    (match Ocube_topology.Static_tree.validate tree with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Generic_scheme.create: " ^ msg));
    (match rule with
    | Opencube_rule -> (
      if n land (n - 1) <> 0 then
        invalid_arg "Generic_scheme.create: Opencube_rule needs 2^p nodes";
      match Opencube.check (Opencube.of_fathers tree) with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Generic_scheme.create: not an open-cube: " ^ msg))
    | Raymond_rule | Always_transit | Custom _ -> ());
    let pmax =
      if n land (n - 1) = 0 then
        let rec log2 acc m = if m = 1 then acc else log2 (acc + 1) (m lsr 1) in
        log2 0 n
      else -1
    in
    let root = ref 0 in
    Array.iteri (fun i f -> if f = None then root := i) tree;
    let t =
      {
        net;
        callbacks;
        rule;
        pmax;
        nodes =
          Array.init n (fun i ->
              {
                id = i;
                father = tree.(i);
                token_here = i = !root;
                asking = false;
                in_cs = false;
                lender = i;
                mandator = None;
                queue = Queue.create ();
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
    if nd.asking then Queue.push Wish nd.queue else process_wish t nd

  let release_cs t i =
    let nd = node t i in
    if not nd.in_cs then
      invalid_arg (Printf.sprintf "Generic_scheme.release_cs: node %d not in CS" i);
    set_in_cs t nd false;
    t.callbacks.on_exit i;
    if nd.lender <> nd.id then begin
      send_token t ~src:nd.id ~dst:nd.lender ~lender:None;
      set_token t nd false
    end;
    nd.asking <- false;
    drain t nd

  let father t i = (node t i).father

  let snapshot_tree t = Array.map (fun nd -> nd.father) t.nodes

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
    let rule_name =
      match t.rule with
      | Opencube_rule -> "generic-opencube"
      | Raymond_rule -> "generic-raymond"
      | Always_transit -> "generic-naimi-trehel"
      | Custom _ -> "generic-custom"
    in
    {
      algo_name = rule_name;
      request_cs = request_cs t;
      release_cs = release_cs t;
      on_recovered = ignore;
      snapshot_tree = (fun () -> Some (snapshot_tree t));
      token_holders = (fun () -> token_holders t);
      invariant_check = (fun () -> invariant_check t);
      repair_bound = 0.0;
    }
end

include Make (Runtime.Sim)
