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
  token_regenerations : int;
  searches_started : int;
  search_nodes_tested : int;
  enquiries_sent : int;
  anomalies_detected : int;
  duplicate_requests_dropped : int;
  mandates_voided : int;
  stale_tokens_bounced : int;
  unexpected_tokens : int;
  tokens_destroyed : int;
  defensive_drops : int;
  custody_queries : int;
  custody_confirmed : int;
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
    tr_origin : node_id;  (* the asker, who hears if the check fails *)
    tr_next : node_id;  (* the father the request was forwarded to *)
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
    mutable loan_timer : R.timer option;
    mutable enquiry_timer : R.timer option;
    mutable asker_timer : R.timer option;
        (* the custody query to the father, then the search deadline *)
    mutable custody_father : node_id;
        (* father a custody query is outstanding to, -1 = none *)
    mutable custody_held : int;
        (* consecutive "held" answers for the current mandate *)
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
    mutable s_token_regenerations : int;
    mutable s_searches_started : int;
    mutable s_search_nodes_tested : int;
    mutable s_enquiries_sent : int;
    mutable s_anomalies_detected : int;
    mutable s_duplicate_requests_dropped : int;
    mutable s_mandates_voided : int;
    mutable s_stale_tokens_bounced : int;
    mutable s_unexpected_tokens : int;
    mutable s_tokens_destroyed : int;
    mutable s_defensive_drops : int;
    mutable s_custody_queries : int;
    mutable s_custody_confirmed : int;
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
      loan_timer = None;
      enquiry_timer = None;
      asker_timer = None;
      custody_father = -1;
      custody_held = 0;
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
      c.custody_held <- 0
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
    | Message.Custody _ | Message.Custody_answer _ | Message.Release
    | Message.Sk_request _ | Message.Sk_privilege _ | Message.Ra_request _
    | Message.Ra_reply ->
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

  let cancel_slot t tm = match tm with Some tm -> R.cancel_timer t.net tm | None -> ()

  let cancel_asker t i =
    match t.cold.(i) with
    | None -> ()
    | Some c ->
      cancel_slot t c.asker_timer;
      c.asker_timer <- None;
      c.custody_father <- -1

  let cancel_loan_timer t i =
    match t.cold.(i) with
    | None -> ()
    | Some c ->
      cancel_slot t c.loan_timer;
      c.loan_timer <- None

  let cancel_enquiry_timer t i =
    match t.cold.(i) with
    | None -> ()
    | Some c ->
      cancel_slot t c.enquiry_timer;
      c.enquiry_timer <- None

  (* loan <- None and both loan-related timers off, in one step. *)
  let clear_loan_and_timers t i =
    match t.cold.(i) with
    | None -> ()
    | Some c ->
      c.loan <- None;
      cancel_slot t c.loan_timer;
      c.loan_timer <- None;
      cancel_slot t c.enquiry_timer;
      c.enquiry_timer <- None

  (* Section 5 lets an asker suspect its father after 2·pmax·δ (times the
     patience). Under load, queueing alone outlasts that, so the asker
     first asks its father whether it still holds the request, one answer
     wait before the deadline, so that a dead father is still suspected at
     the paper's deadline. The query is never sent before half of the
     deadline, so it cannot overtake the request: where the deadline is
     shorter than two answer waits (pmax <= 2 at patience 1) there is no
     room for it, and the asker suspects at the deadline as the paper
     does. After pmax consecutive "held" answers for one mandate the
     asker stops asking and searches (waiting cycles answer "held"
     forever; DESIGN.md §5). *)
  let rec arm_asker_timer t i =
    if t.config.fault_tolerance then begin
      let c = cold t i in
      cancel_asker t i;
      let deadline =
        t.config.asker_patience *. 2.0 *. float_of_int t.pmax *. delta t
      in
      c.asker_timer <-
        Some
          (if
             c.custody_held >= t.pmax
             || fget t i < 0
             || deadline < 2.0 *. answer_wait t
           then
             R.set_timer t.net ~node:i ~delay:deadline (fun () ->
                 asker_timeout t i)
           else
             R.set_timer t.net ~node:i ~delay:(deadline -. answer_wait t)
               (fun () -> query_custody t i))
    end

  and arm_loan_timer t i =
    if t.config.fault_tolerance then begin
      let c = cold t i in
      cancel_slot t c.loan_timer;
      c.loan_timer <- None;
      match c.loan with
      | None -> ()
      | Some loan ->
        let delay =
          if loan.direct then (2.0 *. delta t) +. cs_estimate
          else (float_of_int (t.pmax + 1) *. delta t) +. cs_estimate
        in
        c.loan_timer <-
          Some (R.set_timer t.net ~node:i ~delay (fun () -> loan_timeout t i))
    end

  and arm_enquiry_timer t i =
    let c = cold t i in
    cancel_slot t c.enquiry_timer;
    c.enquiry_timer <-
      Some
        (R.set_timer t.net ~node:i ~delay:(answer_wait t) (fun () ->
             enquiry_timeout t i))

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
    t.s_duplicate_requests_dropped <- t.s_duplicate_requests_dropped + 1;
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
      t.s_anomalies_detected <- t.s_anomalies_detected + 1;
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
           t.s_defensive_drops <- t.s_defensive_drops + 1);
      fset t i j
    end
    else begin
      (* Proxy behaviour: serve j's request on our own account. *)
      set_asking t i true;
      if has_token t i then begin
        (cold t i).loan <-
          Some { loan_rid = rid; direct = j = rid.source; sent_acks = 0 };
        send t ~src:i ~dst:j (Message.Token { lender = Some i; rid = Some rid });
        set_token t i false;
        arm_loan_timer t i
      end
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
          t.s_defensive_drops <- t.s_defensive_drops + 1
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
        t.s_duplicate_requests_dropped <- t.s_duplicate_requests_dropped + 1
      else
        let c = cold t i in
        c.queue <- Fdeque.push_back c.queue (Preq { origin; rid })
    end
    else process_request t i ~origin ~rid

  (* ------------------------------------------------------------------ *)
  (* Token processing (Section 3.3, "Upon the receipt of token(j)")      *)
  (* ------------------------------------------------------------------ *)

  and receive_token t i ~from_ ~lender ~rid =
    token_received t;
    set_lts t i (now t);
    (* A grant for a request id other than our pending mandate is a stale
       duplicate (a regenerated request raced its original). If it has a
       lender, hand it straight back; if it is ownerless (token(nil)) it is
       the real token and serves the mandate just as well (DESIGN.md §5). *)
    let stale =
      match rid with
      | Some r -> if mrid_some t i then not (mrid_is t i r) else mandator_raw t i >= 0
      | None -> false
    in
    if has_token t i then begin
      (* We already hold a token: the incoming one is a duplicate (possible
         only after an unsafe regeneration). Hand an owned one back to its
         lender so the loan bookkeeping there resolves; destroy an ownerless
         one so that duplication self-heals instead of persisting
         (DESIGN.md §5). *)
      match lender with
      | Some l when l <> i ->
        t.s_stale_tokens_bounced <- t.s_stale_tokens_bounced + 1;
        send t ~src:i ~dst:l (Message.Token { lender = None; rid = None })
      | _ -> t.s_tokens_destroyed <- t.s_tokens_destroyed + 1
    end
    else
      match (stale, lender) with
      | true, Some l when l <> i ->
        t.s_stale_tokens_bounced <- t.s_stale_tokens_bounced + 1;
        send t ~src:i ~dst:l (Message.Token { lender = None; rid = None })
      | _ -> receive_token_accept t i ~from_ ~lender ~rid

  and receive_token_accept t i ~from_ ~lender ~rid =
    match lender with
    | Some l when l <> i && mandator_raw t i < 0 && not (has_loan t i) ->
      (* Stale duplicate grant (DESIGN.md §5): no mandate and no loan means
         this owned token is not ours to keep - hand it back to its lender.
         Decided before the integration prologue below, because that
         prologue kills any ongoing father search: a node that crashed with
         a wish in flight and is re-searching after recovery would otherwise
         have its recovery search silently destroyed by the pre-crash grant
         it bounces, leaving it asking forever with no timer armed. *)
      t.s_stale_tokens_bounced <- t.s_stale_tokens_bounced + 1;
      send t ~src:i ~dst:l (Message.Token { lender = None; rid = None })
    | _ -> receive_token_integrate t i ~from_ ~lender ~rid

  and receive_token_integrate t i ~from_ ~lender ~rid =
    cancel_asker t i;
    (* A token in hand settles any ongoing father search. *)
    stop_search t i;
    (* It also settles an outstanding loan, whatever mandate state we are
       in: custody is back (or passing through us), so the lost-in-return
       suspicion must die with it. Leaving the loan record and its enquiry
       timer armed lets enquiry_timeout fire after we have re-lent the
       token, and regenerate a duplicate (DESIGN.md §5). The no-mandate
       branch below keeps its own loan handling untouched. *)
    (if mandator_raw t i >= 0 && has_loan t i then clear_loan_and_timers t i);
    let m = mandator_raw t i in
    if m = i then begin
      (* Our own wish is satisfied. *)
      reset_mandate_history t i;
      set_token t i true;
      (match lender with
      | None ->
        set_lender t i i;
        fset_none t i
      | Some l ->
        set_lender t i l;
        fset t i from_);
      clear_mandator t i;
      (match rid with Some r -> remember_rid t i r | None -> ());
      clear_mrid t i;
      enter_cs t i
    end
    else if m >= 0 then begin
      (* We are proxy for m: honour the mandate. *)
      let granted_rid = match rid with Some r -> Some r | None -> mrid_opt t i in
      clear_mandator t i;
      clear_mrid t i;
      reset_mandate_history t i;
      match lender with
      | None ->
        (* token(nil): we become the root and lend it to our mandator. *)
        fset_none t i;
        set_lender t i i;
        let loan_rid =
          match granted_rid with
          | Some r -> r
          | None -> { source = m; seq = -1 } (* unreachable in practice *)
        in
        (cold t i).loan <-
          Some { loan_rid; direct = m = loan_rid.source; sent_acks = 0 };
        send t ~src:i ~dst:m (Message.Token { lender = Some i; rid = granted_rid });
        arm_loan_timer t i
        (* asking remains true until the token returns. *)
      | Some l ->
        fset t i from_;
        send t ~src:i ~dst:m (Message.Token { lender = Some l; rid = granted_rid });
        set_asking t i false;
        drain t i
    end
    else if has_loan t i then begin
      (* Return after a loan we granted: we are the resting holder again,
         i.e. the de-facto root. *)
      clear_loan_and_timers t i;
      set_token t i true;
      set_lender t i i;
      fset_none t i;
      set_asking t i false;
      drain t i
    end
    else
      match lender with
      | None ->
        (* A token with no lender and no expectation: adopt it (we become
           the root holder). Happens only in fault scenarios. *)
        t.s_unexpected_tokens <- t.s_unexpected_tokens + 1;
        set_token t i true;
        fset_none t i;
        set_lender t i i;
        set_asking t i false;
        drain t i
      | Some l when l = i ->
        (* Our own lent token routed back oddly: keep it. *)
        t.s_unexpected_tokens <- t.s_unexpected_tokens + 1;
        set_token t i true;
        set_lender t i i;
        set_asking t i false;
        drain t i
      | Some l ->
        (* Stale duplicate grant: bounce it back to its lender
           (DESIGN.md §5). *)
        t.s_stale_tokens_bounced <- t.s_stale_tokens_bounced + 1;
        send t ~src:i ~dst:l (Message.Token { lender = None; rid = None })

  (* ------------------------------------------------------------------ *)
  (* Fault tolerance: lender-side enquiry and token regeneration         *)
  (* ------------------------------------------------------------------ *)

  and regenerate_token t i =
    (* The regenerated token makes this node the holder: any father search
       still running must die with the suspicion, or it marches on to a
       census that polls everyone *except us*, concludes the token we now
       hold is lost, and regenerates a duplicate (DESIGN.md §5). *)
    stop_search t i;
    t.s_token_regenerations <- t.s_token_regenerations + 1;
    clear_loan_and_timers t i;
    set_token t i true;
    set_lender t i i;
    (* Dispatch exactly as [regenerate_as_root] does: a pending mandate —
       our own wish or one we proxy — must be served by the new token, or
       it is orphaned with [asking] cleared and nothing ever serves it. *)
    let m = mandator_raw t i in
    if m = i then begin
      clear_mandator t i;
      (match mrid_opt t i with Some r -> remember_rid t i r | None -> ());
      clear_mrid t i;
      enter_cs t i
    end
    else if m >= 0 then begin
      let loan_rid =
        match mrid_opt t i with Some r -> r | None -> { source = m; seq = -1 }
      in
      clear_mandator t i;
      clear_mrid t i;
      (cold t i).loan <-
        Some { loan_rid; direct = m = loan_rid.source; sent_acks = 0 };
      send t ~src:i ~dst:m (Message.Token { lender = Some i; rid = Some loan_rid });
      set_token t i false;
      arm_loan_timer t i
    end
    else begin
      set_asking t i false;
      drain t i
    end

  and loan_timeout t i =
    match loan_of t i with
    | None -> ()
    | Some loan ->
      if is_asking t i && not (has_token t i) then begin
        t.s_enquiries_sent <- t.s_enquiries_sent + 1;
        send t ~src:i ~dst:loan.loan_rid.source
          (Message.Enquiry { rid = loan.loan_rid });
        arm_enquiry_timer t i
      end

  and enquiry_timeout t i =
    (* No answer from the source within 2δ: it is down, the token is lost. *)
    match loan_of t i with None -> () | Some _ -> regenerate_token t i

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
      cancel_enquiry_timer t i;
      match answer with
      | In_cs ->
        (* Suspicion ill-founded: keep waiting another loan round. *)
        arm_loan_timer t i
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
          (match t.cold.(i) with Some c -> c.loan <- None | None -> ());
          cancel_loan_timer t i;
          start_search t i ~phase:1 ~resume:false
        end
        else begin
          (* The return is in flight; give it 2δ. *)
          let c = cold t i in
          cancel_slot t c.loan_timer;
          c.loan_timer <-
            Some
              (R.set_timer t.net ~node:i ~delay:(answer_wait t) (fun () ->
                   loan_timeout t i))
        end
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
    (match t.cold.(i) with Some c -> c.custody_father <- -1 | None -> ());
    if awaiting_grant t i then
      start_search t i ~phase:(power_of t i + 1) ~resume:true

  and query_custody t i =
    let f = fget t i in
    match mrid_opt t i with
    | Some rid when f >= 0 && awaiting_grant t i ->
      let c = cold t i in
      t.s_custody_queries <- t.s_custody_queries + 1;
      send t ~src:i ~dst:f (Message.Custody { rid });
      c.custody_father <- f;
      c.asker_timer <-
        Some
          (R.set_timer t.net ~node:i ~delay:(answer_wait t) (fun () ->
               asker_timeout t i))
    | _ -> asker_timeout t i

  and receive_custody t i ~from_ ~rid =
    let held = mrid_is t i rid || queued t i rid || vouch_transit t i rid in
    send t ~src:i ~dst:from_ (Message.Custody_answer { rid; held })

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
      { tr_rid = rid; tr_origin = origin; tr_next = next; tr_check = None }
      :: older

  and vouch_transit t i rid =
    (* We forwarded [rid] in transit: answer "held" and check the next hop
       ourselves (it may have forwarded it in turn). If that check fails,
       tell the asker directly, which then searches at once. *)
    match transit_of t i rid with
    | Some tr ->
      if Option.is_none tr.tr_check then begin
        send t ~src:i ~dst:tr.tr_next (Message.Custody { rid });
        tr.tr_check <-
          Some
            (R.set_timer t.net ~node:i ~delay:(answer_wait t) (fun () ->
                 tr.tr_check <- None;
                 send t ~src:i ~dst:tr.tr_origin
                   (Message.Custody_answer { rid; held = false })))
      end;
      true
    | None -> false

  and receive_custody_answer t i ~from_ ~rid ~held =
    match t.cold.(i) with
    | None -> ()
    | Some c -> (
      match transit_of t i rid with
      | Some ({ tr_check = Some tm; _ } as tr) when tr.tr_next = from_ ->
        (* The answer to our transit check. *)
        R.cancel_timer t.net tm;
        tr.tr_check <- None;
        if not held then
          send t ~src:i ~dst:tr.tr_origin (Message.Custody_answer { rid; held })
      | _ when not (mrid_is t i rid) -> ()
      | _ when not held ->
        (* From our father, or from a transit node up the request's path
           whose check failed: nobody holds the request. *)
        cancel_asker t i;
        asker_timeout t i
      | _ ->
        if c.custody_father = from_ then begin
          t.s_custody_confirmed <- t.s_custody_confirmed + 1;
          c.custody_held <- c.custody_held + 1;
          arm_asker_timer t i
        end)

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
      t.s_searches_started <- t.s_searches_started + 1;
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
    else begin
      let ring = ring_at_distance i s.phase in
      s.outstanding <- ring;
      s.try_later <- [];
      t.s_search_nodes_tested <- t.s_search_nodes_tested + List.length ring;
      List.iter
        (fun k -> send t ~src:i ~dst:k (Message.Test { d = s.phase }))
        ring;
      arm_phase_timer t i s
    end

  and arm_phase_timer t i s =
    cancel_slot t s.phase_timer;
    s.phase_timer <-
      Some
        (R.set_timer t.net ~node:i ~delay:(answer_wait t) (fun () ->
             phase_timeout t i s))

  and phase_timeout t i s =
    let still_active =
      match search_of t i with Some s' -> s' == s | None -> false
    in
    if still_active then begin
      match s.stage with
      | Census round -> census_round_over t i s round
      | Probing ->
        if s.try_later <> [] && s.retries < 8 then begin
          (* Retest the nodes that asked us to try later (Section 5, case
             ii). Bounded: after a few rounds we move to the next ring - the
             try-later nodes are revisited by the next search for this
             mandate, and regeneration stays safe behind the census. *)
          s.retries <- s.retries + 1;
          s.outstanding <- s.try_later;
          s.try_later <- [];
          t.s_search_nodes_tested <-
            t.s_search_nodes_tested + List.length s.outstanding;
          List.iter
            (fun k -> send t ~src:i ~dst:k (Message.Test { d = s.phase }))
            s.outstanding;
          arm_phase_timer t i s
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
    cancel_slot t s.phase_timer;
    s.phase_timer <-
      Some
        (R.set_timer t.net ~node:i
           ~delay:(answer_wait t +. cs_estimate)
           (fun () -> phase_timeout t i s))

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
    t.s_token_regenerations <- t.s_token_regenerations + 1;
    set_token t i true;
    set_lender t i i;
    let m = mandator_raw t i in
    if m = i then begin
      clear_mandator t i;
      (match mrid_opt t i with Some r -> remember_rid t i r | None -> ());
      clear_mrid t i;
      enter_cs t i
    end
    else if m >= 0 then begin
      let loan_rid =
        match mrid_opt t i with Some r -> r | None -> { source = m; seq = -1 }
      in
      clear_mandator t i;
      clear_mrid t i;
      (cold t i).loan <-
        Some { loan_rid; direct = m = loan_rid.source; sent_acks = 0 };
      send t ~src:i ~dst:m (Message.Token { lender = Some i; rid = Some loan_rid });
      set_token t i false;
      arm_loan_timer t i
    end
    else begin
      set_asking t i false;
      drain t i
    end

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
      t.s_mandates_voided <- t.s_mandates_voided + 1;
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
    | Message.Custody_answer { rid; held } ->
      receive_custody_answer t i ~from_:src ~rid ~held
    | Message.Release | Message.Sk_request _ | Message.Sk_privilege _
    | Message.Ra_request _ | Message.Ra_reply ->
      t.s_defensive_drops <- t.s_defensive_drops + 1

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
        s_token_regenerations = 0;
        s_searches_started = 0;
        s_search_nodes_tested = 0;
        s_enquiries_sent = 0;
        s_anomalies_detected = 0;
        s_duplicate_requests_dropped = 0;
        s_mandates_voided = 0;
        s_stale_tokens_bounced = 0;
        s_unexpected_tokens = 0;
        s_tokens_destroyed = 0;
        s_defensive_drops = 0;
        s_custody_queries = 0;
        s_custody_confirmed = 0;
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
        | Message.Custody _ | Message.Custody_answer _ | Message.Release
        | Message.Sk_request _ | Message.Sk_privilege _ | Message.Ra_request _
        | Message.Ra_reply ->
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
    let custody_held, custody_father =
      match t.cold.(i) with
      | Some c -> (c.custody_held, c.custody_father)
      | None -> (0, -1)
    in
    Printf.sprintf
      "node %d: father=%s power=%d token=%b asking=%b in_cs=%b lender=%d      mandator=%s rid=%s queue=%d searching=%b custody_held=%d/%d custody_query=%s"
      i
      (fmt_opt (father t i))
      (power_of t i) (has_token t i) (is_asking t i) (is_in_cs t i)
      (lender_of t i)
      (fmt_opt (if mand < 0 then None else Some mand))
      (fmt_rid (mrid_opt t i))
      (queue_length t i) (searching_now t i) custody_held t.pmax
      (fmt_opt (if custody_father < 0 then None else Some custody_father))

  let stats t =
    {
      token_regenerations = t.s_token_regenerations;
      searches_started = t.s_searches_started;
      search_nodes_tested = t.s_search_nodes_tested;
      enquiries_sent = t.s_enquiries_sent;
      anomalies_detected = t.s_anomalies_detected;
      duplicate_requests_dropped = t.s_duplicate_requests_dropped;
      mandates_voided = t.s_mandates_voided;
      stale_tokens_bounced = t.s_stale_tokens_bounced;
      unexpected_tokens = t.s_unexpected_tokens;
      tokens_destroyed = t.s_tokens_destroyed;
      defensive_drops = t.s_defensive_drops;
      custody_queries = t.s_custody_queries;
      custody_confirmed = t.s_custody_confirmed;
    }

  let holder_count t = t.tokens_held

  let in_cs_count t = t.nodes_in_cs

  let invariant_check t =
    token_verdict ~in_cs:t.nodes_in_cs ~held:t.tokens_held
      ~in_flight:t.tokens_in_flight token_holders t

  let check_opencube t =
    let fathers = snapshot_tree t in
    Opencube.check (Opencube.of_fathers fathers)

  let instance t =
    {
      algo_name = "opencube";
      request_cs = request_cs t;
      release_cs = release_cs t;
      on_recovered = on_recovered t;
      snapshot_tree = (fun () -> Some (snapshot_tree t));
      token_holders = (fun () -> token_holders t);
      invariant_check = (fun () -> invariant_check t);
    }
end

include Make (Runtime.Sim)
