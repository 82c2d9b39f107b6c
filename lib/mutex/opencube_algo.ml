open Types
module Opencube = Ocube_topology.Opencube
module Fdeque = Ocube_sim.Fdeque
module Ringbuf = Ocube_sim.Ringbuf

type queue_policy = Fifo | Lifo | Random_order

type config = {
  p : int;
  fault_tolerance : bool;
  asker_patience : float;
  census_rounds : int;
  queue_policy : queue_policy;
}

let default_config ~p =
  {
    p;
    fault_tolerance = true;
    asker_patience = 1.0;
    census_rounds = 2;
    queue_policy = Fifo;
  }

let cs_estimate = 1.0
(** [e], the estimated critical-section duration used in the lender's
    timeouts (Section 5). *)

let dedup_window = 32
(** How many recently-served request ids each node remembers. *)

type pending = Wish | Preq of { origin : node_id; rid : request_id }

type loan = {
  loan_rid : request_id;
  direct : bool;
  mutable sent_acks : int;
      (* consecutive "token sent" enquiry answers without the return
         arriving; bounded before the loan is declared orphaned *)
}

type search_stage =
  | Probing  (** walking the distance rings with test(d) messages *)
  | Census of int  (** every phase failed; confirming token loss, round k *)

(* What the lender's one watch on its loan waits for: the token's return
   (the loan timeout), then the answer to the enquiry it sent. *)
type loan_stage = Return_due | Answer_due

(* --- per-node state, split hot/cold for N ≈ 1M ---------------------------

   The hot scalars every message handler touches live in flat Bigarray
   vectors indexed by node id (the layout DESIGN.md §11 documents):
   O(N) words of unboxed memory, no per-node heap records, and the same
   id-indexed striping [lib/par/pool.ml] uses, so parallel readers (the
   packed model checker, striped init) touch disjoint cache lines.
   Options are encoded with a [-1] sentinel (node ids and rid sources
   are >= 0); the three booleans pack into one byte per node.

   The structured, allocation-heavy remainder — wait queue, dedup ring,
   loan/search records, timer handles — is {e cold}: it exists only for
   nodes the protocol has actually engaged, behind one [cold option]
   slot each. An idle node costs exactly one word of heap (the [None])
   plus its stripe of the vectors, which is what makes 2^20-node
   instances affordable. *)

type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type byte_ba =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type float_ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* flag bits *)
let fl_token = 1

let fl_asking = 2

let fl_in_cs = 4

(* The flat Section 3 image ([export]/[load]); the layout is documented
   in the .mli. Every function that knows which word holds what lives
   here. *)
module Image = struct
  let token = fl_token
  let asking = fl_asking
  let in_cs = fl_in_cs
  let direct = 8
  let header = 1
  let stride = 9
  let father = 0
  let flags = 1
  let lender = 2
  let mandator = 3
  let mandate = 4
  let next_seq = 5
  let own = 6
  let loan = 7
  let queue_len = 8
  let entry = 2
  let rid_bits = 11
  let rid ~source ~seq = (seq lsl rid_bits) lor (source + 1)
  let rid_source w = (w land ((1 lsl rid_bits) - 1)) - 1
  let rid_seq w = w lsr rid_bits
  let[@inline] block i = header + (i * stride)
  let get (img : int array) i f = img.(block i + f)

  (* A node that never acted: no father, its own lender, all else 0. *)
  let rest i f =
    if f = lender then i else if f = father || f = mandator then -1 else 0

  let retire (img : int array) i =
    for f = 0 to stride - 1 do
      img.(block i + f) <- rest i f
    done

  let is_retired (w : int array) i =
    let rec at_rest f = f = stride || (w.(f) = rest i f && at_rest (f + 1)) in
    Array.length w = stride && at_rest 0

  let holders (nodes : int array array) =
    List.filter
      (fun i -> nodes.(i).(flags) land token <> 0)
      (List.init (Array.length nodes) Fun.id)

  let invariant_check ~in_flight (nodes : int array array) =
    let held = ref 0 and in_cs = ref 0 in
    for i = 0 to Array.length nodes - 1 do
      let fl = nodes.(i).(flags) in
      if fl land token <> 0 then incr held;
      if fl land fl_in_cs <> 0 then incr in_cs
    done;
    token_verdict ~in_cs:!in_cs ~held:!held ~in_flight holders nodes

  let names_node ~n (img : int array) i =
    let rid_names w = w <> 0 && rid_source w = i in
    let named = ref false in
    for j = 0 to n - 1 do
      if
        j <> i
        && (get img j lender = i
           || get img j mandator = i
           || rid_names (get img j mandate)
           || rid_names (get img j loan))
      then named := true
    done;
    let q = ref (block n) in
    while !q < Array.length img do
      if img.(!q) = i || rid_names img.(!q + 1) then named := true;
      q := !q + entry
    done;
    !named

  let node_length (img : int array) i = stride + (entry * get img i queue_len)

  let nodes ~n (img : int array) =
    let q = ref (block n) in
    Array.init n (fun i ->
        let w = Array.make (node_length img i) 0 in
        Array.blit img (block i) w 0 stride;
        Array.blit img !q w stride (Array.length w - stride);
        q := !q + Array.length w - stride;
        w)

  let assemble ~in_flight (nodes : int array array) =
    let n = Array.length nodes in
    let len = ref (block n) in
    Array.iter (fun w -> len := !len + Array.length w - stride) nodes;
    let img = Array.make !len 0 in
    img.(0) <- in_flight;
    let q = ref (block n) in
    Array.iteri
      (fun i (w : int array) ->
        let ql = Array.length w - stride in
        Array.blit w 0 img (block i) stride;
        Array.blit w stride img !q ql;
        q := !q + ql)
      nodes;
    img

  let relabel_node (perm : int array) (w : int array) =
    let ren v = if v < 0 then v else perm.(v) in
    let ren_rid w =
      if w = 0 then 0 else rid ~source:perm.(rid_source w) ~seq:(rid_seq w)
    in
    let out = Array.copy w in
    out.(father) <- ren w.(father);
    out.(lender) <- ren w.(lender);
    out.(mandator) <- ren w.(mandator);
    out.(mandate) <- ren_rid w.(mandate);
    out.(own) <- ren_rid w.(own);
    out.(loan) <- ren_rid w.(loan);
    let k = ref stride in
    while !k < Array.length w do
      out.(!k) <- ren w.(!k);
      out.(!k + 1) <- ren_rid w.(!k + 1);
      k := !k + entry
    done;
    out
end

type state = {
  father : int_ba;  (* current father id, -1 = root/none *)
  flags : byte_ba;  (* fl_token lor fl_asking lor fl_in_cs *)
  lender : int_ba;  (* lender of the held token; self when not borrowed *)
  mandator : int_ba;  (* whose request we carry, -1 = none *)
  mrid_src : int_ba;  (* mandate request id, -1 src = none *)
  mrid_seq : int_ba;
  msearches : int_ba;
      (* searches started for the current mandate; repeat searches sweep
         from phase 1 with an exclusion list so a searcher caught in a
         waiting cycle makes monotone progress towards the token holder
         (DESIGN.md, deviations) *)
  next_seq : int_ba;
  lorid_src : int_ba;  (* last own request id, -1 src = none *)
  lorid_seq : int_ba;
  last_token_seen : float_ba;
      (* virtual time this node last held, sent or received the token; lets
         a census catch tokens that are momentarily in flight *)
}

type stats = {
  mutable token_regenerations : int;
  mutable searches_started : int;
  mutable search_nodes_tested : int;
  mutable enquiries_sent : int;
  mutable anomalies_detected : int;
  mutable duplicate_requests_dropped : int;
  mutable mandates_voided : int;
  mutable stale_tokens_bounced : int;
  mutable unexpected_tokens : int;
  mutable tokens_destroyed : int;
  mutable defensive_drops : int;
  mutable custody_queries : int;
  mutable custody_confirmed : int;
  mutable probe_walks : int;
  mutable cycles_detected : int;
}

let dist = Opencube.dist

(* Field-wise int equality: the custody and search handlers compare
   rids on every message, and [=] on a record calls [caml_compare]. *)
let rid_equal (a : request_id) (b : request_id) =
  Int.equal a.source b.source && Int.equal a.seq b.seq

(* [List.mem] on node ids, without [caml_compare] or a closure. *)
let rec mem_node k = function
  | [] -> false
  | x :: rest -> Int.equal x k || mem_node k rest

module Make (R : Runtime.S) = struct
  type search = {
    mutable phase : int;
    mutable stage : search_stage;
    mutable outstanding : node_id list;
    mutable try_later : node_id list;
    mutable retries : int;
    mutable phase_timer : R.timer option;
  }

  (* A request this node forwarded as a transit node (the first half of a
     b-transformation): it no longer holds the request but knows where it
     went, so it can vouch for it to a custody query (DESIGN.md §5). *)
  type transit = {
    tr_rid : request_id;
    tr_next : node_id;  (* the father the request was forwarded to *)
    mutable tr_asker : node_id;
        (* who hears if the request is lost: the last node that asked us
           about it (at first, the node it came from) *)
    mutable tr_until : float;
        (* end of the lease the last check of [tr_next] learned; until
           then we vouch without checking again *)
    mutable tr_check : R.timer option;  (* a custody check of [tr_next] *)
  }

  type cold = {
    mutable mandate_excluded : node_id list;
        (* fathers already adopted for this mandate without the token
           arriving; their ok answers are ignored on repeat searches *)
    mutable queue : pending Fdeque.t;  (* deferred events, service order per
                                          config.queue_policy *)
    recent_rids : request_id Ringbuf.t;
        (* own recently *satisfied* request ids (last [dedup_window] of
           them), consulted when answering a lender's enquiry (Token_sent
           vs Token_lost) *)
    mutable loan : loan option;
    mutable loan_watch : (loan_stage * R.timer) option;
    mutable asker_timer : R.timer option;
        (* the custody query to the father, then the search deadline *)
    mutable custody_father : node_id;
        (* father a custody query is outstanding to, -1 = none *)
    mutable asked_at : float;
        (* when the current mandate's request was last sent *)
    mutable up_until : float;
        (* when the backlog that the last held answer reported ahead of
           the current mandate runs out: the lease ([neg_infinity]: none) *)
    mutable held_seen : int;
        (* held answers for the current mandate since it began or since
           its last wait-for probe walk (see held_per_walk) *)
    mutable walk_out : bool;
        (* a walk is out and the end of its chain has not answered; it
           stands in for the custody query until the deadline *)
    mutable search : search option;
    mutable transits : transit list;
        (* newest first; each transit lowers our power by one, so pmax
           records cover every transit since our father last changed *)
  }

  type t = {
    net : R.t;
    callbacks : callbacks;
    config : config;
    pmax : int;
    n : int;
    st : state;
    cold : cold option array;
    policy_rng : Ocube_sim.Rng.t;  (* for the Random_order queue policy *)
    mutable tokens_in_flight : int;
    mutable tokens_held : int;  (* nodes with fl_token set, failed ones too *)
    mutable nodes_in_cs : int;  (* nodes with fl_in_cs set *)
    stats : stats;
  }

  (* ------------------------------------------------------------------ *)
  (* State accessors                                                     *)
  (* ------------------------------------------------------------------ *)

  let fget t i = t.st.father.{i}

  let fset t i v = t.st.father.{i} <- v

  let fset_none t i = t.st.father.{i} <- -1

  let has_token t i = t.st.flags.{i} land fl_token <> 0

  (* The token and in-CS flags keep exact running tallies, so that
     [invariant_check] is O(1): these two setters are their only writers
     after [make_state]. *)
  let set_token t i b =
    let f = t.st.flags.{i} in
    if b <> (f land fl_token <> 0) then begin
      t.st.flags.{i} <- f lxor fl_token;
      t.tokens_held <- (t.tokens_held + if b then 1 else -1)
    end

  let is_asking t i = t.st.flags.{i} land fl_asking <> 0

  let set_asking t i b =
    let f = t.st.flags.{i} in
    t.st.flags.{i} <- (if b then f lor fl_asking else f land lnot fl_asking)

  let is_in_cs t i = t.st.flags.{i} land fl_in_cs <> 0

  let set_in_cs t i b =
    let f = t.st.flags.{i} in
    if b <> (f land fl_in_cs <> 0) then begin
      t.st.flags.{i} <- f lxor fl_in_cs;
      t.nodes_in_cs <- (t.nodes_in_cs + if b then 1 else -1)
    end

  let lender_of t i = t.st.lender.{i}

  let set_lender t i v = t.st.lender.{i} <- v

  let mandator_raw t i = t.st.mandator.{i}

  let set_mandator t i v = t.st.mandator.{i} <- v

  let clear_mandator t i = t.st.mandator.{i} <- -1

  let mrid_some t i = t.st.mrid_src.{i} >= 0

  let mrid_is t i (rid : request_id) =
    t.st.mrid_src.{i} = rid.source && t.st.mrid_seq.{i} = rid.seq

  let mrid_opt t i =
    let s = t.st.mrid_src.{i} in
    if s < 0 then None else Some { source = s; seq = t.st.mrid_seq.{i} }

  let set_mrid t i (rid : request_id) =
    t.st.mrid_src.{i} <- rid.source;
    t.st.mrid_seq.{i} <- rid.seq

  let clear_mrid t i = t.st.mrid_src.{i} <- -1

  let msearches t i = t.st.msearches.{i}

  let set_msearches t i v = t.st.msearches.{i} <- v

  let lorid_is t i (rid : request_id) =
    t.st.lorid_src.{i} = rid.source && t.st.lorid_seq.{i} = rid.seq

  let set_lorid t i (rid : request_id) =
    t.st.lorid_src.{i} <- rid.source;
    t.st.lorid_seq.{i} <- rid.seq

  let clear_lorid t i = t.st.lorid_src.{i} <- -1

  let lts t i = t.st.last_token_seen.{i}

  let set_lts t i v = t.st.last_token_seen.{i} <- v

  let fresh_cold () =
    {
      mandate_excluded = [];
      queue = Fdeque.empty;
      recent_rids = Ringbuf.create ~capacity:dedup_window;
      loan = None;
      loan_watch = None;
      asker_timer = None;
      custody_father = -1;
      asked_at = 0.0;
      up_until = neg_infinity;
      held_seen = 0;
      walk_out = false;
      search = None;
      transits = [];
    }

  let cold t i =
    match t.cold.(i) with
    | Some c -> c
    | None ->
      let c = fresh_cold () in
      t.cold.(i) <- Some c;
      c

  (* Read-only cold views: never allocate a record for an untouched node. *)
  let search_of t i = match t.cold.(i) with Some c -> c.search | None -> None

  let searching_now t i =
    match t.cold.(i) with Some { search = Some _; _ } -> true | _ -> false

  let loan_of t i = match t.cold.(i) with Some c -> c.loan | None -> None

  let has_loan t i =
    match t.cold.(i) with Some { loan = Some _; _ } -> true | _ -> false

  let excluded t i =
    match t.cold.(i) with Some c -> c.mandate_excluded | None -> []

  (* A new (or no) mandate: forget the search and custody history of the
     previous one. *)
  let reset_mandate_history t i =
    set_msearches t i 0;
    match t.cold.(i) with
    | Some c ->
      c.mandate_excluded <- [];
      c.up_until <- neg_infinity;
      c.held_seen <- 0
    | None -> ()

  let queued t i rid =
    match t.cold.(i) with
    | None -> false
    | Some c ->
      Fdeque.exists
        (function Preq r -> rid_equal r.rid rid | Wish -> false)
        c.queue

  (* ------------------------------------------------------------------ *)
  (* Small helpers                                                       *)
  (* ------------------------------------------------------------------ *)

  let power_of t i =
    match search_of t i with
    | Some s -> s.phase - 1 (* "while performing phase d, i evaluates its power
                               as d-1" (Section 5) *)
    | None ->
      let f = fget t i in
      if f < 0 then t.pmax else dist i f - 1

  let fresh_rid t i =
    let seq = t.st.next_seq.{i} in
    t.st.next_seq.{i} <- seq + 1;
    { source = i; seq }

  let remember_rid t i rid = Ringbuf.add (cold t i).recent_rids rid

  let seen_rid t i rid =
    match t.cold.(i) with
    | Some c -> Ringbuf.mem c.recent_rids rid
    | None -> false

  let now t = R.now t.net

  let send t ~src ~dst payload =
    (match payload with
    | Message.Token _ ->
      t.tokens_in_flight <- t.tokens_in_flight + 1;
      set_lts t src (now t)
    | Message.Request _ | Message.Enquiry _ | Message.Enquiry_answer _
    | Message.Test _ | Message.Test_answer _ | Message.Anomaly _
    | Message.Void _ | Message.Census _ | Message.Census_reply _
    | Message.Custody _ | Message.Custody_answer _ | Message.Probe _
    | Message.Release | Message.Sk_request _ | Message.Sk_privilege _
    | Message.Ra_request _ | Message.Ra_reply ->
      ());
    R.send t.net ~src ~dst payload

  let token_received t = t.tokens_in_flight <- t.tokens_in_flight - 1

  (* ------------------------------------------------------------------ *)
  (* Timers (all no-ops when fault tolerance is off)                     *)
  (* ------------------------------------------------------------------ *)

  let delta t = R.delta t.net

  (* How long any fault-machinery question waits for its answer: one
     round trip at the bounded delay, plus 5% slack. *)
  let answer_wait t = 2.0 *. delta t *. 1.05

  let test_retries = 8 (* re-tests of "try later" nodes per search phase *)

  let cancel_slot t tm = match tm with Some tm -> R.cancel_timer t.net tm | None -> ()

  let cancel_asker t i =
    match t.cold.(i) with
    | None -> ()
    | Some c ->
      cancel_slot t c.asker_timer;
      c.asker_timer <- None;
      c.custody_father <- -1;
      c.walk_out <- false

  let cancel_loan_watch t c =
    (match c.loan_watch with
    | Some (_, tm) -> R.cancel_timer t.net tm
    | None -> ());
    c.loan_watch <- None

  (* loan <- None and its watch off, in one step. *)
  let clear_loan t i =
    match t.cold.(i) with
    | None -> ()
    | Some c ->
      c.loan <- None;
      cancel_loan_watch t c

  (* Section 5 lets an asker suspect its father after 2·pmax·δ (times the
     patience). *)
  let asker_deadline t =
    t.config.asker_patience *. 2.0 *. float_of_int t.pmax *. delta t

  (* [e + 2δ]: what one request queued ahead of ours is expected to cost,
     its critical section and the token's way there. A held custody answer
     reporting [ahead] such requests grants a lease of [ahead] slots. *)
  let lease_slot t = cs_estimate +. (2.0 *. delta t)

  let lease_until t ahead = now t +. (float_of_int ahead *. lease_slot t)

  (* The requests still ahead of a lease that runs out at [until] (less a
     rounding hair, so that k slots read back as k). *)
  let backlog_left t until =
    let left = until -. now t in
    if left <= 0.0 then 0
    else int_of_float (Float.ceil ((left /. lease_slot t) -. 1e-9))

  (* A wait-for probe walk stands in for every k-th held answer, k the bit
     length of pmax: leases at least double (renew_lease), so the k-th
     answer comes after about pmax deadlines, the walk's old period. *)
  let held_per_walk t =
    let rec bits k = if k = 0 then 0 else 1 + bits (k lsr 1) in
    bits t.pmax

  (* No lease outlasts N slots: with at most one request outstanding per
     node, no request has more than N ahead of it. *)
  let longest_lease t = float_of_int t.n *. lease_slot t

  (* Under load, queueing alone outlasts the deadline, so the asker first
     asks its father whether it still holds the request, one answer wait
     before the deadline, so that a dead father is still suspected at the
     paper's deadline; but not before the longest fault-free grant
     (pmax + 2 hops, DESIGN.md §5bis), so that an uncontended request is
     never asked about. The query is never sent before half of the
     deadline, so it cannot overtake the request: where the deadline is
     shorter than two answer waits (pmax <= 2 at patience 1) there is no
     room for it, and the asker suspects at the deadline as the paper
     does. Later queries ride the lease (renew_lease). Waiting cycles
     answer "held" forever; the wait-for probe finds them (DESIGN.md §5). *)
  let rec arm_asker_timer t i =
    if t.config.fault_tolerance then begin
      let c = cold t i in
      cancel_asker t i;
      c.asked_at <- now t;
      let deadline = asker_deadline t in
      c.asker_timer <-
        Some
          (if fget t i < 0 || deadline < 2.0 *. answer_wait t then
             R.set_timer t.net ~node:i ~delay:deadline (fun () ->
                 asker_timeout t i)
           else
             let longest_grant = float_of_int (t.pmax + 2) *. delta t in
             R.set_timer t.net ~node:i
               ~delay:(Float.max (deadline -. answer_wait t) longest_grant)
               (fun () -> query_custody t i))
    end

  (* After a held answer the asker sleeps out its lease, or as long as it
     has already waited if that is longer, and at least as long as before
     its first query; then it asks again. *)
  and renew_lease t i =
    let c = cold t i in
    cancel_asker t i;
    let delay =
      Float.min (longest_lease t)
        (Float.max
           (asker_deadline t -. answer_wait t)
           (Float.max (c.up_until -. now t) (now t -. c.asked_at)))
    in
    c.asker_timer <-
      Some (R.set_timer t.net ~node:i ~delay (fun () -> query_custody t i))

  and watch_loan t i stage ~delay =
    let c = cold t i in
    cancel_loan_watch t c;
    c.loan_watch <-
      Some
        ( stage,
          R.set_timer t.net ~node:i ~delay (fun () ->
              c.loan_watch <- None;
              match stage with
              | Return_due -> loan_timeout t i
              | Answer_due ->
                (* No answer from the source: it is down, the token lost. *)
                if has_loan t i then regenerate_token t i) )

  and watch_return t i loan =
    if t.config.fault_tolerance then
      watch_loan t i Return_due
        ~delay:
          (if loan.direct then (2.0 *. delta t) +. cs_estimate
           else (float_of_int (t.pmax + 1) *. delta t) +. cs_estimate)

  (* Lend our token to [dst] for request [rid] and watch the loan. *)
  and lend t i ~dst ~rid =
    let loan = { loan_rid = rid; direct = dst = rid.source; sent_acks = 0 } in
    (cold t i).loan <- Some loan;
    send t ~src:i ~dst (Message.Token { lender = Some i; rid = Some rid });
    set_token t i false;
    watch_return t i loan

  (* ------------------------------------------------------------------ *)
  (* Critical-section entry/exit and the deferred-event queue            *)
  (* ------------------------------------------------------------------ *)

  and enter_cs t i =
    set_in_cs t i true;
    t.callbacks.on_enter i

  and pop_queued t i =
    (* The paper only assumes the waiting-queue service policy is fair
       ("for example, the FIFO policy"); Lifo is deliberately unfair and
       exists for the fairness ablation. *)
    match t.cold.(i) with
    | None -> None
    | Some c ->
      if Fdeque.is_empty c.queue then None
      else
        let popped =
          match t.config.queue_policy with
          | Fifo -> Fdeque.pop_front c.queue
          | Lifo -> Fdeque.pop_back c.queue
          | Random_order ->
            Fdeque.pop_nth c.queue
              (Ocube_sim.Rng.int t.policy_rng (Fdeque.length c.queue))
        in
        (match popped with
        | None -> None
        | Some (ev, rest) ->
          c.queue <- rest;
          Some ev)

  and drain t i =
    (* Serve deferred events while the node is idle. Processing an event may
       set [asking] again, which stops the loop. *)
    let continue = ref true in
    while (not (is_asking t i)) && !continue do
      match pop_queued t i with
      | None -> continue := false
      | Some Wish -> process_wish t i
      | Some (Preq { origin; rid }) ->
        if rid.source = i && not (mrid_is t i rid) then
          drop_own_stale_request t i ~origin ~rid
        else process_request t i ~origin ~rid
    done

  and drop_own_stale_request t i ~origin ~rid =
    (* A stale copy of one of our own requests came back around (a proxy
       regenerated it after we were already served): drop it, and tell the
       proxy its mandate is void — otherwise it retries the dead request
       forever (its timeout runs search_father, re-sends, we drop again:
       livelock). Fault-free runs never regenerate, so this path stays
       silent there and message counts are unchanged. *)
    t.stats.duplicate_requests_dropped <-
      t.stats.duplicate_requests_dropped + 1;
    if t.config.fault_tolerance && origin <> i then
      send t ~src:i ~dst:origin (Message.Void { rid })

  and process_wish t i =
    set_asking t i true;
    if has_token t i then begin
      (* The node already holds the token (it is the current root holder):
         enter immediately; lender invariant says lender = self. *)
      set_lender t i i;
      enter_cs t i
    end
    else begin
      let rid = fresh_rid t i in
      set_mandator t i i;
      set_mrid t i rid;
      reset_mandate_history t i;
      set_lorid t i rid;
      let f = fget t i in
      if f >= 0 then begin
        send t ~src:i ~dst:f (Message.Request { origin = i; rid });
        arm_asker_timer t i
      end
      else
        (* Root without token: the token is on its way back to us (we are the
           lender of an outstanding loan). The wish will be honoured when the
           return arrives (mandator = self triggers CS entry). *)
        arm_asker_timer t i
    end

  (* ------------------------------------------------------------------ *)
  (* Request processing (Section 3.3, "Upon receipt of request(j)")      *)
  (* ------------------------------------------------------------------ *)

  and process_request t i ~origin ~rid =
    let j = origin in
    let pw = power_of t i in
    let dj = dist i j in
    if t.config.fault_tolerance && dj > pw && not (has_token t i) then begin
      (* Anomaly: a stale descendant of a recovered node (Section 5, "Node
         recovery"). In an open-cube power(father) >= dist(father, son).
         Exception: when we hold the token we serve the request anyway
         (below, as a proxy loan) — the search hardening makes the holder
         accept any searcher as a son, so bouncing the son's request here
         would loop it forever between anomaly and re-attachment. *)
      t.stats.anomalies_detected <- t.stats.anomalies_detected + 1;
      send t ~src:i ~dst:j (Message.Anomaly { rid })
    end
    else if dj = pw then begin
      (* j climbed through our last son: transit behaviour. First half of a
         b-transformation. *)
      (if has_token t i then begin
         send t ~src:i ~dst:j (Message.Token { lender = None; rid = Some rid });
         set_token t i false
       end
       else
         let f = fget t i in
         if f >= 0 then begin
           send t ~src:i ~dst:f (Message.Request { origin = j; rid });
           if t.config.fault_tolerance then record_transit t i ~rid ~origin:j ~next:f
         end
         else
           (* Root without the token and not asking: unreachable in fault-free
              runs (a lender is asking until the return). Drop; the origin's
              timeout machinery recovers. *)
           t.stats.defensive_drops <- t.stats.defensive_drops + 1);
      fset t i j
    end
    else begin
      (* Proxy behaviour: serve j's request on our own account. *)
      set_asking t i true;
      if has_token t i then lend t i ~dst:j ~rid
      else
        let f = fget t i in
        if f >= 0 then begin
          set_mandator t i j;
          set_mrid t i rid;
          reset_mandate_history t i;
          send t ~src:i ~dst:f (Message.Request { origin = i; rid });
          arm_asker_timer t i
        end
        else begin
          (* Same broken transient as above. *)
          set_asking t i false;
          t.stats.defensive_drops <- t.stats.defensive_drops + 1
        end
    end

  and receive_request t i ~origin ~rid =
    if rid.source = i && not (mrid_is t i rid) then
      drop_own_stale_request t i ~origin ~rid
    else if is_asking t i then begin
      (* wait (not asking): defer. De-duplicate against the active mandate and
         against already-queued requests (regenerated requests may race their
         originals; DESIGN.md §5). *)
      let duplicate = mrid_is t i rid || queued t i rid in
      if duplicate then
        t.stats.duplicate_requests_dropped <-
          t.stats.duplicate_requests_dropped + 1
      else
        let c = cold t i in
        c.queue <- Fdeque.push_back c.queue (Preq { origin; rid })
    end
    else process_request t i ~origin ~rid

  (* ------------------------------------------------------------------ *)
  (* Token processing (Section 3.3, "Upon the receipt of token(j)")      *)
  (* ------------------------------------------------------------------ *)

  (* The stale-token guard (DESIGN.md §5) decides once what an arriving
     token is. An owned token that is not ours to keep goes back to its
     lender, so that the loan bookkeeping there resolves: one that reaches
     a holder (a duplicate, possible only after an unsafe regeneration), a
     grant for a request other than our mandate (a regenerated request
     raced its original), or one that finds neither a mandate nor a loan
     here. The guard runs before the prologue below, because that prologue
     kills any father search: a node re-searching after recovery would
     otherwise lose its search to the pre-crash grant it bounces. An
     ownerless duplicate at a holder is destroyed, so that duplication
     self-heals; an ownerless token anywhere else is the real token and
     serves the mandate just as well. *)
  and receive_token t i ~from_ ~lender ~rid =
    token_received t;
    set_lts t i (now t);
    let m = mandator_raw t i and lent = has_loan t i in
    let ours =
      if m >= 0 then match rid with Some r -> mrid_is t i r | None -> true
      else lent
    in
    match lender with
    | Some l when l <> i && (has_token t i || not ours) ->
      t.stats.stale_tokens_bounced <- t.stats.stale_tokens_bounced + 1;
      send t ~src:i ~dst:l (Message.Token { lender = None; rid = None })
    | _ when has_token t i ->
      t.stats.tokens_destroyed <- t.stats.tokens_destroyed + 1
    | _ ->
      (* A token in hand settles any father search, and any loan: custody
         is back (or passing through us), so the lost-in-return suspicion
         must die with it, or it fires after we have re-lent the token
         and regenerates a duplicate (DESIGN.md §5). *)
      cancel_asker t i;
      stop_search t i;
      if lent then clear_loan t i
      else if m < 0 then
        (* Neither asked for nor lent: happens only in fault scenarios. *)
        t.stats.unexpected_tokens <- t.stats.unexpected_tokens + 1;
      set_token t i true;
      (match lender with
      | Some l when m >= 0 ->
        (* A grant: the sender becomes our father. *)
        set_lender t i l;
        fset t i from_
      | Some _ when not lent ->
        (* Our own lent token routed back oddly: keep it. *)
        set_lender t i i
      | _ ->
        set_lender t i i;
        fset_none t i);
      serve_mandate t i ~lender ~rid

  (* Section 3.3's rule for a node with the token in hand, shared by token
     arrival and both regenerations (PROTOCOL.md §4): enter the CS for our
     own wish; for a mandator, lend it the token if it is ours ([lender =
     None]: we become its lender) or pass it on with its lender; with no
     mandate, keep it and serve the queue. [rid] is the grant's request
     id: remembered as served for an own wish; sent on to a mandator, or
     the mandate's own when the token carries none. *)
  and serve_mandate t i ~lender ~rid =
    let m = mandator_raw t i in
    if m < 0 then begin
      set_asking t i false;
      drain t i
    end
    else begin
      let granted =
        match rid with Some r -> r | None -> Option.get (mrid_opt t i)
      in
      clear_mandator t i;
      clear_mrid t i;
      reset_mandate_history t i;
      if m = i then begin
        (match rid with Some r -> remember_rid t i r | None -> ());
        enter_cs t i
      end
      else
        match lender with
        | None -> lend t i ~dst:m ~rid:granted
        | Some l ->
          send t ~src:i ~dst:m
            (Message.Token { lender = Some l; rid = Some granted });
          set_token t i false;
          set_asking t i false;
          drain t i
    end

  (* ------------------------------------------------------------------ *)
  (* Fault tolerance: lender-side enquiry and token regeneration         *)
  (* ------------------------------------------------------------------ *)

  and regenerate_token t i =
    (* The regenerated token makes this node the holder: any father search
       still running must die with the suspicion, or it marches on to a
       census that polls everyone *except us*, concludes the token we now
       hold is lost, and regenerates a duplicate (DESIGN.md §5). *)
    stop_search t i;
    t.stats.token_regenerations <- t.stats.token_regenerations + 1;
    clear_loan t i;
    set_token t i true;
    set_lender t i i;
    serve_mandate t i ~lender:None ~rid:(mrid_opt t i)

  and loan_timeout t i =
    match loan_of t i with
    | None -> ()
    | Some loan ->
      if is_asking t i && not (has_token t i) then begin
        t.stats.enquiries_sent <- t.stats.enquiries_sent + 1;
        send t ~src:i ~dst:loan.loan_rid.source
          (Message.Enquiry { rid = loan.loan_rid });
        watch_loan t i Answer_due ~delay:(answer_wait t)
      end

  and receive_enquiry t i ~from_ ~rid =
    (* Order matters: a satisfied rid stays satisfied even if a stale
       duplicate of it was later re-adopted as a mandate - answering
       token-lost for a completed loan would make the lender regenerate a
       duplicate token. *)
    let answer =
      if is_in_cs t i && lorid_is t i rid then In_cs
      else if seen_rid t i rid then Token_sent
      else Token_lost
    in
    send t ~src:i ~dst:from_ (Message.Enquiry_answer { rid; answer })

  and receive_enquiry_answer t i ~rid ~answer =
    match loan_of t i with
    | Some loan when rid_equal loan.loan_rid rid -> (
      match answer with
      | In_cs ->
        (* Suspicion ill-founded: keep waiting another loan round. *)
        watch_return t i loan
      | Token_sent ->
        loan.sent_acks <- loan.sent_acks + 1;
        if loan.sent_acks >= 3 then begin
          (* The source keeps claiming it sent the token back, yet nothing
             arrives: the token went into another custody chain (e.g. a
             duplicate was destroyed, or the source was served through a
             regenerated path and returned the token to a different lender).
             Orphan the loan - regenerating here would duplicate the token -
             and reintegrate under the real root via search_father
             (DESIGN.md §5). *)
          clear_loan t i;
          start_search t i ~phase:1 ~resume:false
        end
        else
          (* The return is in flight; give it 2δ. *)
          watch_loan t i Return_due ~delay:(answer_wait t)
      | Token_lost -> regenerate_token t i)
    | _ -> ()

  (* ------------------------------------------------------------------ *)
  (* Fault tolerance: search_father                                      *)
  (* ------------------------------------------------------------------ *)

  and stop_search t i =
    match t.cold.(i) with
    | None -> ()
    | Some c -> (
      match c.search with
      | None -> ()
      | Some s ->
        cancel_slot t s.phase_timer;
        s.phase_timer <- None;
        c.search <- None)

  and ring_at_distance i d =
    (* The 2^(d-1) nodes at distance exactly d: the sibling (d-1)-block. *)
    let base = ((i lsr (d - 1)) lxor 1) lsl (d - 1) in
    List.init (1 lsl (d - 1)) (fun k -> base + k)

  and awaiting_grant t i =
    is_asking t i && (not (has_token t i)) && mrid_some t i
    && not (searching_now t i)

  and asker_timeout t i =
    (match t.cold.(i) with
    | Some c ->
      c.custody_father <- -1;
      c.walk_out <- false
    | None -> ());
    if awaiting_grant t i then
      start_search t i ~phase:(power_of t i + 1) ~resume:true

  and query_custody t i =
    let f = fget t i in
    match mrid_opt t i with
    | Some rid when f >= 0 && awaiting_grant t i ->
      let c = cold t i in
      t.stats.custody_queries <- t.stats.custody_queries + 1;
      send t ~src:i ~dst:f (Message.Custody { rid });
      c.custody_father <- f;
      c.asker_timer <-
        Some
          (R.set_timer t.net ~node:i ~delay:(answer_wait t) (fun () ->
               asker_timeout t i))
    | _ -> asker_timeout t i

  and receive_custody t i ~from_ ~rid =
    let ahead = held_backlog t i rid in
    let ahead = if ahead >= 0 then ahead else vouch_transit t i ~from_ rid in
    send t ~src:i ~dst:from_
      (Message.Custody_answer { rid; held = ahead >= 0; ahead = max ahead 0 })

  (* The backlog ahead of [rid] here, or -1 if we do not hold it: the
     requests queued before it, behind our own mandate (or CS, or loan),
     plus the backlog our mandate has shown upstream, in slots: what its
     lease still covers, or how long it has waited so far if that is
     longer. Capped at N. *)
  and held_backlog t i rid =
    match t.cold.(i) with
    | None -> if mrid_is t i rid then 0 else -1
    | Some c ->
      let upstream =
        if mrid_some t i then
          max
            (backlog_left t c.up_until)
            (int_of_float ((now t -. c.asked_at) /. lease_slot t))
        else 0
      in
      if mrid_is t i rid then min t.n upstream
      else
        match
          Fdeque.find_index
            (function Preq r -> rid_equal r.rid rid | Wish -> false)
            c.queue
        with
        | Some k -> min t.n (k + 1 + upstream)
        | None -> -1

  and transit_of t i rid =
    match t.cold.(i) with
    | Some c -> List.find_opt (fun tr -> rid_equal tr.tr_rid rid) c.transits
    | None -> None

  and record_transit t i ~rid ~origin ~next =
    let c = cold t i in
    let room = ref (t.pmax - 1) in
    let older =
      List.filter
        (fun tr ->
          let keep = (not (rid_equal tr.tr_rid rid)) && !room > 0 in
          if keep then decr room else cancel_slot t tr.tr_check;
          keep)
        c.transits
    in
    c.transits <-
      {
        tr_rid = rid;
        tr_next = next;
        tr_asker = origin;
        tr_until = neg_infinity;
        tr_check = None;
      }
      :: older

  (* We forwarded [rid] in transit: vouch for it with the lease our last
     check of the next hop learned. Once that lease has run out, vouch
     without one and check the next hop again (it may have forwarded the
     request in turn); the asker hears from us if the check fails. Returns
     the backlog vouched for, or -1 without a record. *)
  and vouch_transit t i ~from_ rid =
    match transit_of t i rid with
    | None -> -1
    | Some tr ->
      tr.tr_asker <- from_;
      if now t < tr.tr_until then backlog_left t tr.tr_until
      else begin
        if Option.is_none tr.tr_check then begin
          send t ~src:i ~dst:tr.tr_next (Message.Custody { rid });
          tr.tr_check <-
            Some
              (R.set_timer t.net ~node:i ~delay:(answer_wait t) (fun () ->
                   tr.tr_check <- None;
                   transit_lost t i tr))
        end;
        0
      end

  (* The next hop does not hold a request we forwarded, or is silent: the
     record is stale, so drop it and tell the last node that asked. *)
  and transit_lost t i tr =
    (match t.cold.(i) with
    | Some c -> c.transits <- List.filter (fun tr' -> tr' != tr) c.transits
    | None -> ());
    send t ~src:i ~dst:tr.tr_asker
      (Message.Custody_answer { rid = tr.tr_rid; held = false; ahead = 0 })

  and receive_custody_answer t i ~from_ ~rid ~held ~ahead =
    match t.cold.(i) with
    | None -> ()
    | Some c -> (
      match transit_of t i rid with
      | Some tr when tr.tr_next = from_ && not (mrid_is t i rid) ->
        (* The answer to our check of the next hop, or its word that the
           request is lost further up. *)
        cancel_slot t tr.tr_check;
        tr.tr_check <- None;
        if held then tr.tr_until <- lease_until t ahead else transit_lost t i tr
      | _ when c.walk_out ->
        (* The end of our walk answers. Unless our own request is held
           nowhere, the chain makes progress: resume the custody queries.
           Otherwise the deadline armed with the walk decides, which
           leaves time for a grant already on its way. *)
        if held || not (mrid_is t i rid) then renew_lease t i
      | _ when not (mrid_is t i rid) -> ()
      | _ when not held ->
        (* From our father, directly or relaying a failed transit check
           further up: nobody holds the request. *)
        cancel_asker t i;
        asker_timeout t i
      | _ ->
        if c.custody_father = from_ then begin
          t.stats.custody_confirmed <- t.stats.custody_confirmed + 1;
          c.up_until <- lease_until t ahead;
          (* Custody is confirmed, so the wait-for edge to [from_] exists.
             Every held_per_walk-th held answer walks the chain behind it
             instead of asking again (the first one when a search made
             the edge). *)
          if c.held_seen >= held_per_walk t - 1 then begin
            c.held_seen <- 0;
            start_walk t i ~father:from_ ~rid
          end
          else begin
            c.held_seen <- c.held_seen + 1;
            renew_lease t i
          end
        end)

  (* The wait-for probe (DESIGN.md §5): a walk along the chain of nodes
     that hold the request, which stands in for the next custody query.
     It comes back to its initiator only around a waiting cycle, whose
     members answer each other "held" forever; otherwise the end of the
     chain answers. Until the deadline, silence is the only other
     outcome. *)
  and start_walk t i ~father ~rid =
    let c = cold t i in
    cancel_asker t i;
    t.stats.probe_walks <- t.stats.probe_walks + 1;
    c.walk_out <- true;
    send t ~src:i ~dst:father (Message.Probe { initiator = i; rid; hops = 0 });
    c.asker_timer <-
      Some
        (R.set_timer t.net ~node:i ~delay:(asker_deadline t) (fun () ->
             asker_timeout t i))

  (* One hop of a walk. A node that holds [rid] (its mandate, or in its
     queue) and waits on its own mandate passes the walk to its father;
     one that forwarded [rid] in transit, to the next hop. Anywhere else
     the chain ends, and the node answers the initiator: "held" where the
     request waits on a node that makes progress by itself (it holds the
     token or is in its CS, awaits a loan's return, or searches), "not
     held" where the request went missing. A walk that has made N hops is
     dropped: it ran into a cycle without its initiator, whose members
     break it themselves. *)
  and receive_probe t i ~initiator ~rid ~hops =
    let ahead = held_backlog t i rid in
    let held_here = ahead >= 0 in
    if initiator = i && held_here && awaiting_grant t i then begin
      t.stats.cycles_detected <- t.stats.cycles_detected + 1;
      cancel_asker t i;
      asker_timeout t i
    end
    else if hops < t.n then begin
      let answer held =
        if initiator <> i then
          send t ~src:i ~dst:initiator
            (Message.Custody_answer { rid; held; ahead = max ahead 0 })
      in
      let forward ~dst rid =
        send t ~src:i ~dst (Message.Probe { initiator; rid; hops = hops + 1 })
      in
      if held_here then
        match mrid_opt t i with
        | Some m when awaiting_grant t i && (not (has_loan t i)) && fget t i >= 0
          ->
          forward ~dst:(fget t i) m
        | _ -> answer true
      else
        match transit_of t i rid with
        | Some tr -> forward ~dst:tr.tr_next rid
        | None -> answer false
    end

  and start_search t i ~phase ~resume =
    (* A node holding the token (or inside its CS) is the attach point
       everyone else is looking for: it never needs a father search. The
       guard matters when the token arrives between a search abort and its
       restart backoff: the deferred restart would run while [asking] is
       still true for the CS, and a stale [Test_answer] from the aborted
       search could then conclude it as a no-mandate recovery search, whose
       [asking <- false; drain] serves queued requests - transiting the
       token away in mid-CS and breaking mutual exclusion. *)
    if (not (searching_now t i)) && (not (has_token t i)) && not (is_in_cs t i)
    then begin
      t.stats.searches_started <- t.stats.searches_started + 1;
      cancel_asker t i;
      let phase =
        (* Escalate past fathers that answered ok before but never led to the
           token: the k-th search for one mandate starts k-1 phases higher. *)
        (* First search for a mandate starts at power+1 (Cor. 2.1); repeat
           searches sweep every ring from phase 1, skipping fathers that
           already failed us (mandate_excluded). *)
        if resume then begin
          set_msearches t i (msearches t i + 1);
          if msearches t i = 1 then phase else 1
        end
        else phase
      in
      let s =
        {
          phase;
          stage = Probing;
          outstanding = [];
          try_later = [];
          retries = 0;
          phase_timer = None;
        }
      in
      (cold t i).search <- Some s;
      run_phase t i s
    end

  and run_phase t i s =
    if s.phase > t.pmax then begin_census t i s
    else test_round t i s (ring_at_distance i s.phase)

  (* One round of test(d) messages, answered within one answer wait. *)
  and test_round t i s nodes =
    s.outstanding <- nodes;
    s.try_later <- [];
    t.stats.search_nodes_tested <-
      t.stats.search_nodes_tested + List.length nodes;
    List.iter
      (fun k -> send t ~src:i ~dst:k (Message.Test { d = s.phase }))
      nodes;
    arm_phase_timer t i s ~delay:(answer_wait t)

  and arm_phase_timer t i s ~delay =
    cancel_slot t s.phase_timer;
    s.phase_timer <-
      Some (R.set_timer t.net ~node:i ~delay (fun () -> phase_timeout t i s))

  and phase_timeout t i s =
    let still_active =
      match search_of t i with Some s' -> s' == s | None -> false
    in
    if still_active then begin
      match s.stage with
      | Census round -> census_round_over t i s round
      | Probing ->
        if s.try_later <> [] && s.retries < test_retries then begin
          (* Retest the nodes that asked us to try later (Section 5, case
             ii). Bounded: after a few rounds we move to the next ring - the
             try-later nodes are revisited by the next search for this
             mandate, and regeneration stays safe behind the census. *)
          s.retries <- s.retries + 1;
          test_round t i s s.try_later
        end
        else begin
          s.phase <- s.phase + 1;
          s.retries <- 0;
          run_phase t i s
        end
    end

  (* Every phase failed: in the paper the node immediately becomes the root
     and regenerates the token. That is unsafe when the token is merely
     elsewhere and every holder happened to be silent (e.g. rootless windows
     while a token(nil) is in flight), so by default we first run a census:
     ask every node whether the token still exists, [census_rounds] times.
     census_rounds = 0 reproduces the paper's behaviour (DESIGN.md §5). *)
  and begin_census t i s =
    if t.config.census_rounds <= 0 then regenerate_as_root t i
    else begin
      s.stage <- Census 1;
      census_send t i s 1
    end

  and census_send t i s round =
    for k = 0 to t.n - 1 do
      if k <> i then send t ~src:i ~dst:k (Message.Census { round })
    done;
    arm_phase_timer t i s ~delay:(answer_wait t +. cs_estimate)

  and census_round_over t i s round =
    if round >= t.config.census_rounds then regenerate_as_root t i
    else begin
      let round = round + 1 in
      s.stage <- Census round;
      census_send t i s round
    end

  and receive_census t i ~from_ ~round =
    let freshness = 4.0 *. delta t in
    let holds_token =
      has_token t i || is_in_cs t i || has_loan t i
      || now t -. lts t i <= freshness
    in
    if holds_token then
      send t ~src:i ~dst:from_
        (Message.Census_reply { round; reply = Token_exists })
    else
      match search_of t i with
      | Some s
        when (match s.stage with Census _ -> true | Probing -> false)
             && i < from_ ->
        (* Both of us concluded the token is lost; the smaller id wins the
           right to regenerate. *)
        send t ~src:i ~dst:from_
          (Message.Census_reply { round; reply = Census_defer })
      | _ -> ()

  and receive_census_reply t i ~reply =
    match search_of t i with
    | Some s when (match s.stage with Census _ -> true | Probing -> false) -> (
      match reply with
      | Token_exists | Census_defer ->
        (* The token is alive (or someone else will regenerate it): abort and
           search again from scratch after a backoff, forgetting which
           fathers failed us - the world has moved on. *)
        reset_mandate_history t i;
        stop_search t i;
        let backoff =
          ((2.0 *. delta t) +. cs_estimate)
          *. (1.0 +. (float_of_int i /. float_of_int (4 * t.n)))
        in
        ignore
          (R.set_timer t.net ~node:i ~delay:backoff (fun () ->
               if (not (searching_now t i)) && is_asking t i then
                 start_search t i ~phase:1 ~resume:(mrid_some t i))))
    | _ -> ()

  and conclude_father t i k =
    stop_search t i;
    fset t i k;
    if mrid_some t i then begin
      (* Regenerate the pending request towards the new father; remember it
         so that a fruitless adoption is not repeated for this mandate. *)
      let c = cold t i in
      if not (mem_node k c.mandate_excluded) then
        c.mandate_excluded <- k :: c.mandate_excluded;
      (* Searches are how waiting cycles form: walk at once. The lease
         came from the old father. *)
      c.held_seen <- held_per_walk t - 1;
      c.up_until <- neg_infinity;
      let rid = Option.get (mrid_opt t i) in
      send t ~src:i ~dst:k (Message.Request { origin = i; rid });
      arm_asker_timer t i
    end
    else begin
      (* Recovery search: reconnection done, resume serving. *)
      set_asking t i false;
      drain t i
    end

  and regenerate_as_root t i =
    stop_search t i;
    fset_none t i;
    t.stats.token_regenerations <- t.stats.token_regenerations + 1;
    set_token t i true;
    set_lender t i i;
    serve_mandate t i ~lender:None ~rid:(mrid_opt t i)

  and receive_test t i ~from_ ~d =
    match search_of t i with
    | Some s -> (
      (* Concurrent suspicion arbitration (Section 5). A censusing node has
         exhausted every phase: it behaves as a higher-phase searcher. *)
      let my_phase =
        match s.stage with Probing -> s.phase | Census _ -> t.pmax + 1
      in
      if my_phase > d then
        send t ~src:i ~dst:from_ (Message.Test_answer { d; answer = Father_ok })
      else if my_phase < d then
        (* The paper's optimization: we would necessarily conclude
           father := from_ anyway. *)
        conclude_father t i from_
      else if i < from_ then
        send t ~src:i ~dst:from_ (Message.Test_answer { d; answer = Father_ok })
      else () (* equal phases, larger id: stay silent *))
    | None ->
      let pw = power_of t i in
      if has_token t i then
        (* The holder is always a valid attach point: it serves any request
           it receives directly (hardening, DESIGN.md §5). *)
        send t ~src:i ~dst:from_ (Message.Test_answer { d; answer = Holder_ok })
      else if fget t i = from_ then
        (* We are the prober's son: it cannot take us as its father (that
           would close a cycle), and our power cannot rise before the prober
           itself resolves - stay silent so it discards us. *)
        ()
      else if pw >= d then
        send t ~src:i ~dst:from_ (Message.Test_answer { d; answer = Father_ok })
      else if is_asking t i then
        send t ~src:i ~dst:from_ (Message.Test_answer { d; answer = Try_later })
      else () (* cannot be the father: stay silent *)

  and receive_test_answer t i ~from_ ~d ~answer =
    match search_of t i with
    | None -> () (* stale answer *)
    | Some s -> (
      match answer with
      | Holder_ok -> conclude_father t i from_
      | Father_ok ->
        if mem_node from_ (excluded t i) then
          (* Adopting this node already failed to produce the token during
             this mandate: treat it as discarded. *)
          s.outstanding <- List.filter (fun k -> k <> from_) s.outstanding
        else conclude_father t i from_
      | Try_later -> (
        match s.stage with
        | Probing ->
          if d = s.phase && mem_node from_ s.outstanding then begin
            s.outstanding <- List.filter (fun k -> k <> from_) s.outstanding;
            s.try_later <- from_ :: s.try_later
          end
        | Census _ -> ()))

  and receive_anomaly t i ~rid =
    (* Our father is inconsistent with the structure: re-run search_father
       (Section 5, "Node recovery"). *)
    if mrid_is t i rid && not (searching_now t i) then begin
      cancel_asker t i;
      start_search t i ~phase:(power_of t i + 1) ~resume:true
    end

  and receive_void t i ~rid =
    (* The source says [rid] was already served: the proxy mandate we hold
       for it is void. Cancel it and pass the word down the mandate chain
       (each proxy in a chain holds the same [rid] and serves the previous
       one). Never cancels an own wish: the source only voids a [rid] that
       is no longer its active mandate, so [mandator = self] here would mean
       the void is itself stale — ignore it. *)
    let m = mandator_raw t i in
    if m >= 0 && m <> i && mrid_is t i rid && not (has_token t i) then begin
      t.stats.mandates_voided <- t.stats.mandates_voided + 1;
      cancel_asker t i;
      stop_search t i;
      clear_mandator t i;
      clear_mrid t i;
      reset_mandate_history t i;
      set_asking t i false;
      if m <> rid.source then send t ~src:i ~dst:m (Message.Void { rid });
      drain t i
    end

  (* ------------------------------------------------------------------ *)
  (* Dispatch                                                            *)
  (* ------------------------------------------------------------------ *)

  let handle_message t i ~src payload =
    match payload with
    | Message.Request { origin; rid } -> receive_request t i ~origin ~rid
    | Message.Token { lender; rid } -> receive_token t i ~from_:src ~lender ~rid
    | Message.Enquiry { rid } -> receive_enquiry t i ~from_:src ~rid
    | Message.Enquiry_answer { rid; answer } ->
      receive_enquiry_answer t i ~rid ~answer
    | Message.Test { d } -> receive_test t i ~from_:src ~d
    | Message.Test_answer { d; answer } ->
      receive_test_answer t i ~from_:src ~d ~answer
    | Message.Anomaly { rid } -> receive_anomaly t i ~rid
    | Message.Void { rid } -> receive_void t i ~rid
    | Message.Census { round } -> receive_census t i ~from_:src ~round
    | Message.Census_reply { reply; _ } -> receive_census_reply t i ~reply
    | Message.Custody { rid } -> receive_custody t i ~from_:src ~rid
    | Message.Custody_answer { rid; held; ahead } ->
      receive_custody_answer t i ~from_:src ~rid ~held ~ahead
    | Message.Probe { initiator; rid; hops } ->
      receive_probe t i ~initiator ~rid ~hops
    | Message.Release | Message.Sk_request _ | Message.Sk_privilege _
    | Message.Ra_request _ | Message.Ra_reply ->
      t.stats.defensive_drops <- t.stats.defensive_drops + 1

  (* ------------------------------------------------------------------ *)
  (* Public API                                                          *)
  (* ------------------------------------------------------------------ *)

  let make_state ~n =
    let int_vec init =
      let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
      Bigarray.Array1.fill a init;
      a
    in
    let st =
      {
        father = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n;
        flags =
          (let a =
             Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n
           in
           Bigarray.Array1.fill a 0;
           a);
        lender = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n;
        mandator = int_vec (-1);
        mrid_src = int_vec (-1);
        mrid_seq = int_vec 0;
        msearches = int_vec 0;
        next_seq = int_vec 0;
        lorid_src = int_vec (-1);
        lorid_seq = int_vec 0;
        last_token_seen =
          (let a =
             Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
           in
           Bigarray.Array1.fill a neg_infinity;
           a);
      }
    in
    (* The id-dependent vectors are filled with the same static index
       striping lib/par/pool.ml uses; at small n the pool degrades to the
       plain serial loop. Initial fathers are the closed form of the id
       (Opencube.initial_father) — no tree value is materialized. *)
    let fill i =
      st.father.{i} <- (if i = 0 then -1 else i land (i - 1));
      st.lender.{i} <- i
    in
    if n >= 65536 then
      Ocube_par.Pool.parallel_for (Ocube_par.Pool.default ()) ~n fill
    else
      for i = 0 to n - 1 do
        fill i
      done;
    st.flags.{0} <- fl_token;
    st.last_token_seen.{0} <- 0.0;
    st

  let create ~net ~callbacks ~config =
    let n = 1 lsl config.p in
    if R.size net <> n then
      invalid_arg
        (Printf.sprintf "Opencube_algo.create: network has %d nodes, need 2^%d"
           (R.size net) config.p);
    let t =
      {
        net;
        callbacks;
        config;
        pmax = config.p;
        n;
        st = make_state ~n;
        cold = Array.make n None;
        policy_rng = Ocube_sim.Rng.create 0xc0be;
        tokens_in_flight = 0;
        tokens_held = 1;
        nodes_in_cs = 0;
        stats =
          {
            token_regenerations = 0;
            searches_started = 0;
            search_nodes_tested = 0;
            enquiries_sent = 0;
            anomalies_detected = 0;
            duplicate_requests_dropped = 0;
            mandates_voided = 0;
            stale_tokens_bounced = 0;
            unexpected_tokens = 0;
            tokens_destroyed = 0;
            defensive_drops = 0;
            custody_queries = 0;
            custody_confirmed = 0;
            probe_walks = 0;
            cycles_detected = 0;
          };
      }
    in
    (* One shared handler instead of 2^p per-node closures: dispatch is
       uniform in the destination id. *)
    R.set_default_handler net (fun ~dst ~src payload ->
        handle_message t dst ~src payload);
    (* A token dropped on a dead destination is lost: keep the in-flight
       account straight (the enquiry machinery will regenerate it). *)
    R.set_drop_handler net (fun ~dst:_ payload ->
        match payload with
        | Message.Token _ -> t.tokens_in_flight <- t.tokens_in_flight - 1
        | Message.Request _ | Message.Enquiry _ | Message.Enquiry_answer _
        | Message.Test _ | Message.Test_answer _ | Message.Anomaly _
        | Message.Void _ | Message.Census _ | Message.Census_reply _
        | Message.Custody _ | Message.Custody_answer _ | Message.Probe _
        | Message.Release | Message.Sk_request _ | Message.Sk_privilege _
        | Message.Ra_request _ | Message.Ra_reply ->
          ());
    t

  let request_cs t i =
    if not (R.is_failed t.net i) then begin
      if is_asking t i then
        let c = cold t i in
        c.queue <- Fdeque.push_back c.queue Wish
      else process_wish t i
    end

  let release_cs t i =
    if not (is_in_cs t i) then
      invalid_arg (Printf.sprintf "Opencube_algo.release_cs: node %d not in CS" i);
    set_in_cs t i false;
    t.callbacks.on_exit i;
    let l = lender_of t i in
    if l <> i then begin
      send t ~src:i ~dst:l (Message.Token { lender = None; rid = None });
      set_token t i false
    end;
    set_asking t i false;
    drain t i

  let on_recovered t i =
    (* Volatile state is lost; {pmax, dist} survive on stable storage. Rebuild
       a leaf-like state and reconnect (Section 5, "Node recovery"). Request
       sequence numbers are salted by the incarnation so that rids from the
       previous life cannot alias new ones. *)
    fset_none t i;
    set_token t i false;
    set_asking t i true;
    set_in_cs t i false;
    set_lender t i i;
    clear_mandator t i;
    clear_mrid t i;
    set_msearches t i 0;
    clear_lorid t i;
    t.st.next_seq.{i} <- R.incarnation t.net i * 1_000_000;
    (* Dropping the cold slot resets the queue, the dedup ring, the loan and
       the search in one go; timers of the previous life are disarmed by the
       network's incarnation guard. *)
    t.cold.(i) <- None;
    set_lts t i neg_infinity;
    start_search t i ~phase:1 ~resume:false

  (* ------------------------------------------------------------------ *)
  (* Introspection                                                       *)
  (* ------------------------------------------------------------------ *)

  let father t i = if fget t i < 0 then None else Some (fget t i)

  let snapshot_tree t = Array.init t.n (fun i -> father t i)

  let power t i = power_of t i

  let token_holders t =
    (* A failed node's frozen state does not count: its token (if any) is
       lost with it. *)
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      if has_token t i && not (R.is_failed t.net i) then acc := i :: !acc
    done;
    !acc

  let is_asking = is_asking

  let in_cs = is_in_cs

  let queue_length t i =
    match t.cold.(i) with Some c -> Fdeque.length c.queue | None -> 0

  let searching = searching_now

  let describe t i =
    let fmt_opt = function None -> "nil" | Some v -> string_of_int v in
    let fmt_rid = function
      | None -> "-"
      | Some r -> Format.asprintf "%a" pp_request_id r
    in
    let mand = mandator_raw t i in
    let custody_father, walk_out, transits, watch =
      match t.cold.(i) with
      | Some c ->
        (c.custody_father, c.walk_out, List.length c.transits, c.loan_watch)
      | None -> (-1, false, 0, None)
    in
    let loan =
      match loan_of t i with
      | None -> "-"
      | Some l ->
        Printf.sprintf "%s/%s/acks=%d"
          (fmt_rid (Some l.loan_rid))
          (if l.direct then "direct" else "indirect")
          l.sent_acks
    in
    Printf.sprintf
      "node %d: father=%s power=%d token=%b asking=%b in_cs=%b lender=%d \
       mandator=%s rid=%s queue=%d searching=%b custody_query=%s \
       walk_out=%b transits=%d loan=%s watch=%s"
      i
      (fmt_opt (father t i))
      (power_of t i) (has_token t i) (is_asking t i) (is_in_cs t i)
      (lender_of t i)
      (fmt_opt (if mand < 0 then None else Some mand))
      (fmt_rid (mrid_opt t i))
      (queue_length t i) (searching_now t i)
      (fmt_opt (if custody_father < 0 then None else Some custody_father))
      walk_out transits loan
      (match watch with
      | None -> "-"
      | Some (Return_due, _) -> "return"
      | Some (Answer_due, _) -> "answer")

  let stats t = { t.stats with token_regenerations = t.stats.token_regenerations }

  let holder_count t = t.tokens_held

  let in_cs_count t = t.nodes_in_cs

  let invariant_check t =
    token_verdict ~in_cs:t.nodes_in_cs ~held:t.tokens_held
      ~in_flight:t.tokens_in_flight token_holders t

  let check_opencube t =
    let fathers = snapshot_tree t in
    Opencube.check (Opencube.of_fathers fathers)

  (* ------------------------------------------------------------------ *)
  (* Section 3 image                                                     *)
  (* ------------------------------------------------------------------ *)

  (* Everything Section 3 reads, as one flat int array (layout in the
     .mli). The fields only Section 5 reads must still hold their initial
     values; the two that Section 3 writes but never reads (the token
     timestamp and the served-rid ring) are left out, and [load] resets
     them (DESIGN.md §12). *)
  let check_section3 t i =
    let idle =
      msearches t i = 0
      &&
      match t.cold.(i) with
      | None -> true
      | Some c -> (
        List.is_empty c.mandate_excluded
        && Option.is_none c.loan_watch
        && Option.is_none c.asker_timer
        && c.custody_father < 0
        && Float.equal c.asked_at 0.0
        && Float.equal c.up_until neg_infinity
        && c.held_seen = 0 && (not c.walk_out) && Option.is_none c.search
        && List.is_empty c.transits
        && match c.loan with Some l -> l.sent_acks = 0 | None -> true)
    in
    if not idle then
      invalid_arg
        (Printf.sprintf "Opencube_algo.export: node %d holds Section 5 state" i)

  let rid_word (r : request_id) = Image.rid ~source:r.source ~seq:r.seq

  let rid_of_word w = { source = Image.rid_source w; seq = Image.rid_seq w }

  let rec put_events img q = function
    | [] -> q
    | Wish :: rest ->
      img.(q) <- -1;
      put_events img (q + Image.entry) rest
    | Preq { origin; rid } :: rest ->
      img.(q) <- origin;
      img.(q + 1) <- rid_word rid;
      put_events img (q + Image.entry) rest

  (* Write node [i]'s block into [img] (zeroed there), and its queue from
     word [q] on; return the word after the queue. *)
  let write_node t img i q =
    let st = t.st in
    let b = Image.block i in
    img.(b + Image.father) <- st.father.{i};
    img.(b + Image.lender) <- st.lender.{i};
    img.(b + Image.mandator) <- st.mandator.{i};
    let ms = st.mrid_src.{i} in
    if ms >= 0 then
      img.(b + Image.mandate) <- Image.rid ~source:ms ~seq:st.mrid_seq.{i};
    img.(b + Image.next_seq) <- st.next_seq.{i};
    let os = st.lorid_src.{i} in
    if os >= 0 then
      img.(b + Image.own) <- Image.rid ~source:os ~seq:st.lorid_seq.{i};
    let flags = st.flags.{i} in
    match t.cold.(i) with
    | None ->
      img.(b + Image.flags) <- flags;
      q
    | Some c ->
      (match c.loan with
      | Some l ->
        img.(b + Image.loan) <- rid_word l.loan_rid;
        img.(b + Image.flags) <-
          (flags lor if l.direct then Image.direct else 0)
      | None -> img.(b + Image.flags) <- flags);
      img.(b + Image.queue_len) <- Fdeque.length c.queue;
      if Fdeque.is_empty c.queue then q
      else put_events img q (Fdeque.to_list c.queue)

  let export t =
    if t.config.fault_tolerance then
      invalid_arg "Opencube_algo.export: fault tolerance is on";
    let n = t.n in
    let qwords = ref 0 in
    for i = 0 to n - 1 do
      check_section3 t i;
      qwords := !qwords + (Image.entry * queue_length t i)
    done;
    let fixed = Image.block n in
    let img = Array.make (fixed + !qwords) 0 in
    img.(0) <- t.tokens_in_flight;
    let q = ref fixed in
    for i = 0 to n - 1 do
      q := write_node t img i !q
    done;
    img

  let rec queue_of img q k acc =
    if k = 0 then acc
    else
      let origin = img.(q) in
      queue_of img (q + Image.entry) (k - 1)
        (Fdeque.push_back acc
           (if origin < 0 then Wish
            else Preq { origin; rid = rid_of_word img.(q + 1) }))

  let load t img =
    if t.config.fault_tolerance then
      invalid_arg "Opencube_algo.load: fault tolerance is on";
    let st = t.st and n = t.n in
    if Array.length img < Image.block n then
      invalid_arg "Opencube_algo.load: image too short";
    t.tokens_in_flight <- img.(0);
    let held = ref 0 and in_cs = ref 0 in
    let q = ref (Image.block n) in
    for i = 0 to n - 1 do
      let b = Image.block i in
      let flags = img.(b + Image.flags) in
      let qlen = img.(b + Image.queue_len) in
      if flags land fl_token <> 0 then incr held;
      if flags land fl_in_cs <> 0 then incr in_cs;
      st.father.{i} <- img.(b + Image.father);
      st.flags.{i} <- flags land (fl_token lor fl_asking lor fl_in_cs);
      st.lender.{i} <- img.(b + Image.lender);
      st.mandator.{i} <- img.(b + Image.mandator);
      let m = img.(b + Image.mandate) in
      st.mrid_src.{i} <- Image.rid_source m;
      st.mrid_seq.{i} <- Image.rid_seq m;
      st.msearches.{i} <- 0;
      st.next_seq.{i} <- img.(b + Image.next_seq);
      let o = img.(b + Image.own) in
      st.lorid_src.{i} <- Image.rid_source o;
      st.lorid_seq.{i} <- Image.rid_seq o;
      st.last_token_seen.{i} <- neg_infinity;
      let loan = img.(b + Image.loan) in
      if loan > 0 || qlen > 0 || Option.is_some t.cold.(i) then begin
        (* A record left by an earlier state is reset in place, so that
           loading allocates only the queue and the loan. *)
        let c = cold t i in
        if Ringbuf.length c.recent_rids > 0 then Ringbuf.clear c.recent_rids;
        c.queue <- queue_of img !q qlen Fdeque.empty;
        c.loan <-
          (if loan = 0 then None
           else
             Some
               {
                 loan_rid = rid_of_word loan;
                 direct = flags land Image.direct <> 0;
                 sent_acks = 0;
               })
      end;
      q := !q + (Image.entry * qlen)
    done;
    t.tokens_held <- !held;
    t.nodes_in_cs <- !in_cs

  (* One repair without a CS entry: the asker deadline, a full search
     (pmax phases of 1 + test_retries answer waits), then the census. *)
  let repair_bound t =
    if not t.config.fault_tolerance then 0.0
    else
      asker_deadline t
      +. (float_of_int ((1 + test_retries) * t.pmax) *. answer_wait t)
      +. (float_of_int t.config.census_rounds *. (answer_wait t +. cs_estimate))

  let instance t =
    {
      algo_name = "opencube";
      request_cs = request_cs t;
      release_cs = release_cs t;
      on_recovered = on_recovered t;
      snapshot_tree = (fun () -> Some (snapshot_tree t));
      token_holders = (fun () -> token_holders t);
      invariant_check = (fun () -> invariant_check t);
      repair_bound = repair_bound t;
    }
end

include Make (Runtime.Sim)
