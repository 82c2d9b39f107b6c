module Engine = Ocube_sim.Engine
module Rng = Ocube_sim.Rng

module type PAYLOAD = sig
  type t

  val category_names : string array

  val category_index : t -> int
end

type delay_model =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float; cap : float }

let delay_bound = function
  | Constant d -> d
  | Uniform { hi; _ } -> hi
  | Exponential { cap; _ } -> cap

let validate_model = function
  | Constant d when d <= 0.0 -> invalid_arg "Network: delay must be positive"
  | Uniform { lo; hi } when lo < 0.0 || hi < lo || hi <= 0.0 ->
    invalid_arg "Network: bad uniform delay bounds"
  | Exponential { mean; cap } when mean <= 0.0 || cap < mean ->
    invalid_arg "Network: bad exponential delay parameters"
  | _ -> ()

module Make (P : PAYLOAD) = struct
  type node = {
    mutable handler : (src:int -> P.t -> unit) option;
    mutable failed : bool;
    mutable incarnation : int;
  }

  type t = {
    engine : Engine.t;
    rng : Rng.t;
    nodes : node array;
    delay : delay_model;
    delta : float;
    mutable sent : int;
    mutable delivered : int;
    mutable dropped : int;
    mutable drop_handler : (dst:int -> P.t -> unit) option;
    mutable default_handler : (dst:int -> src:int -> P.t -> unit) option;
    mutable send_hook : (src:int -> dst:int -> P.t -> unit) option;
    (* Messages sent per category, indexed by [P.category_index]. *)
    categories : int array;
    (* In-flight message arena: the hot delivery path schedules a packed
       engine event whose payload word indexes these parallel arrays — no
       per-message closure, no per-message record. Slots recycle through
       [m_free]; a freed slot retains its last [P.t] until reuse, which
       bounds retention by the peak in-flight count. *)
    deliver_cls : Engine.class_id;
    timer_cls : Engine.class_id;
    mutable m_cap : int;
    mutable m_src : int array;
    mutable m_dst : int array;
    mutable m_inc : int array;
    mutable m_payload : P.t array;
    mutable m_next : int array;
    mutable m_free : int;
  }

  type timer = Engine.timer_id

  let no_msg = -1

  let[@ocube.alloc_ok (* amortised doubling of the in-flight arena *)] grow_msgs
      t payload =
    let ncap = if t.m_cap = 0 then 64 else 2 * t.m_cap in
    let extend arr fill =
      let narr = Array.make ncap fill in
      Array.blit arr 0 narr 0 t.m_cap;
      narr
    in
    t.m_src <- extend t.m_src 0;
    t.m_dst <- extend t.m_dst 0;
    t.m_inc <- extend t.m_inc 0;
    (* [payload] — the message being sent — doubles as the fill value, so
       no dummy [P.t] is ever required of the functor argument. *)
    t.m_payload <- extend t.m_payload payload;
    t.m_next <- extend t.m_next no_msg;
    for s = ncap - 1 downto t.m_cap do
      t.m_next.(s) <- t.m_free;
      t.m_free <- s
    done;
    t.m_cap <- ncap

  let[@ocube.zero_alloc] msg_alloc t ~src ~dst ~inc payload =
    if t.m_free = no_msg then grow_msgs t payload;
    let s = t.m_free in
    t.m_free <- t.m_next.(s);
    t.m_src.(s) <- src;
    t.m_dst.(s) <- dst;
    t.m_inc.(s) <- inc;
    t.m_payload.(s) <- payload;
    s

  let[@ocube.zero_alloc] msg_free t s =
    t.m_next.(s) <- t.m_free;
    t.m_free <- s

  let engine t = t.engine

  let size t = Array.length t.nodes

  let delta t = t.delta

  let check_node t i =
    if i < 0 || i >= size t then
      invalid_arg (Printf.sprintf "Network: node %d out of range" i)

  let set_handler t i h =
    check_node t i;
    t.nodes.(i).handler <- Some h

  let set_drop_handler t h = t.drop_handler <- Some h

  let set_default_handler t h = t.default_handler <- Some h

  let set_send_hook t h = t.send_hook <- Some h

  let sample_delay t =
    match t.delay with
    | Constant d -> d
    | Uniform { lo; hi } -> lo +. Rng.float t.rng (hi -. lo)
    | Exponential { mean; cap } -> Float.min cap (Rng.exponential t.rng ~mean)

  (* Fire a packed delivery event: read the message slot into locals,
     recycle it (nested sends reuse it immediately), then run exactly the
     drop/deliver logic the old per-message closure captured. *)
  let[@ocube.zero_alloc] deliver t s =
    let src = t.m_src.(s) in
    let dst = t.m_dst.(s) in
    let expected_incarnation = t.m_inc.(s) in
    let payload = t.m_payload.(s) in
    msg_free t s;
    let dst_node = t.nodes.(dst) in
    if dst_node.failed || dst_node.incarnation <> expected_incarnation then begin
      t.dropped <- t.dropped + 1;
      (match t.drop_handler with
       | Some h -> h ~dst payload
       | None -> ())
      [@ocube.alloc_ok (* observer dispatch; absent on the measured path *)]
    end
    else begin
      t.delivered <- t.delivered + 1;
      (match dst_node.handler with
       | Some h -> h ~src payload
       | None -> (
         match t.default_handler with
         | Some h -> h ~dst ~src payload
         | None ->
           failwith
             (Printf.sprintf "Network: node %d has no handler installed" dst)))
      [@ocube.alloc_ok
        (* dispatch into the protocol handler: what the handler allocates
           is accounted where the handler is defined *)]
    end

  (* Fire a packed timer event: the callback is the event's own thunk,
     run only if the node is up and still in the incarnation that armed
     it. *)
  let[@ocube.zero_alloc] fire_timer t f node inc =
    let nd = t.nodes.(node) in
    if (not nd.failed) && nd.incarnation = inc then
      (f ())
      [@ocube.alloc_ok
        (* the protocol's timer callback: what it allocates is accounted
           where it is defined *)]

  let create ~engine ~rng ~n ~delay () =
    if n < 1 then invalid_arg "Network.create: n must be >= 1";
    validate_model delay;
    (* The classes must be registered before [t] exists; the cell ties
       the knot. No event of theirs can fire before [create] returns. *)
    let cell = ref None in
    let self () = match !cell with Some t -> t | None -> assert false in
    let deliver_cls =
      Engine.register_class engine (fun _ s _ -> deliver (self ()) s)
    in
    let timer_cls =
      Engine.register_class engine (fun f node inc ->
          fire_timer (self ()) f node inc)
    in
    let t =
      {
        engine;
        rng;
        nodes =
          Array.init n (fun _ ->
              { handler = None; failed = false; incarnation = 0 });
        delay;
        delta = delay_bound delay;
        sent = 0;
        delivered = 0;
        dropped = 0;
        drop_handler = None;
        default_handler = None;
        send_hook = None;
        categories = Array.make (Array.length P.category_names) 0;
        deliver_cls;
        timer_cls;
        m_cap = 0;
        m_src = [||];
        m_dst = [||];
        m_inc = [||];
        m_payload = [||];
        m_next = [||];
        m_free = no_msg;
      }
    in
    cell := Some t;
    t

  let[@ocube.zero_alloc] send t ~src ~dst payload =
    check_node t src;
    check_node t dst;
    if t.nodes.(src).failed then
      invalid_arg
        (Printf.sprintf "Network.send: node %d is failed and cannot send" src);
    t.sent <- t.sent + 1;
    let c =
      (P.category_index payload)
      [@ocube.alloc_ok
        (* functor argument: a constructor match returning a constant *)]
    in
    t.categories.(c) <- t.categories.(c) + 1;
    (match t.send_hook with None -> () | Some h -> h ~src ~dst payload)
    [@ocube.alloc_ok (* observer dispatch; absent on the measured path *)];
    let inc = t.nodes.(dst).incarnation in
    let delay =
      (sample_delay t)
      [@ocube.alloc_ok
        (* a sampled delay is boxed at the Rng call boundary; a constant
           one is returned as stored *)]
    in
    let s = msg_alloc t ~src ~dst ~inc payload in
    ignore
      (Engine.schedule_packed t.engine ~delay ~cls:t.deliver_cls ~a:s ~b:0
         ignore)

  let[@ocube.zero_alloc] set_timer t ~node ~delay f =
    check_node t node;
    Engine.schedule_packed t.engine ~delay ~cls:t.timer_cls ~a:node
      ~b:t.nodes.(node).incarnation f

  let cancel_timer t timer = Engine.cancel t.engine timer

  let fail t i =
    check_node t i;
    let nd = t.nodes.(i) in
    if not nd.failed then begin
      nd.failed <- true;
      nd.incarnation <- nd.incarnation + 1
    end

  let recover t i =
    check_node t i;
    let nd = t.nodes.(i) in
    if not nd.failed then invalid_arg "Network.recover: node is not failed";
    nd.failed <- false;
    nd.incarnation <- nd.incarnation + 1

  let is_failed t i =
    check_node t i;
    t.nodes.(i).failed

  let alive_nodes t =
    let acc = ref [] in
    for i = size t - 1 downto 0 do
      if not t.nodes.(i).failed then acc := i :: !acc
    done;
    !acc

  let incarnation t i =
    check_node t i;
    t.nodes.(i).incarnation

  let sent_total t = t.sent

  let delivered_total t = t.delivered

  let dropped_total t = t.dropped

  let sent_by_category t =
    let acc = ref [] in
    Array.iteri
      (fun i n -> if n > 0 then acc := (P.category_names.(i), n) :: !acc)
      t.categories;
    List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

  let reset_counters t =
    t.sent <- 0;
    t.delivered <- 0;
    t.dropped <- 0;
    Array.fill t.categories 0 (Array.length t.categories) 0
end
