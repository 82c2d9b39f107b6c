module Pool = Ocube_par.Pool

type stats = {
  states : int;
  transitions : int;
  terminals : int;
  max_in_flight : int;
  max_depth : int;
  orbit_states : int;
  spilled_segments : int;
  spilled_bytes : int;
}

type violation = {
  message : string;
  state : Machine.state;
  trace : Machine.transition list;
}

exception Violation of violation

let too_big max_states =
  failwith (Printf.sprintf "Explore.run: state space exceeds %d" max_states)

(* --- growable buffers ---------------------------------------------------- *)

(* Per-state metadata (parent id, packed label+perm) and the next-level
   key run, as growable vectors: every state is appended exactly once,
   nothing is ever shifted. *)

type ibuf = { mutable ints : int array; mutable ilen : int }

let ibuf_create () = { ints = Array.make 1_024 0; ilen = 0 }

let ibuf_push b v =
  if b.ilen = Array.length b.ints then begin
    let n = Array.make (2 * b.ilen) 0 in
    Array.blit b.ints 0 n 0 b.ilen;
    b.ints <- n
  end;
  b.ints.(b.ilen) <- v;
  b.ilen <- b.ilen + 1

let[@inline] ibuf_get b i = b.ints.(i)

type sbuf = { mutable strs : string array; mutable slen : int }

let sbuf_create () = { strs = Array.make 1_024 ""; slen = 0 }

let sbuf_push b v =
  if b.slen = Array.length b.strs then begin
    let n = Array.make (2 * b.slen) "" in
    Array.blit b.strs 0 n 0 b.slen;
    b.strs <- n
  end;
  b.strs.(b.slen) <- v;
  b.slen <- b.slen + 1

let sbuf_reset b =
  Array.fill b.strs 0 b.slen "";
  b.slen <- 0

let sbuf_snapshot b = Array.sub b.strs 0 b.slen

(* --- packed transition labels -------------------------------------------- *)

(* A label is [tag lor (payload lsl 2)]: tags 0..3 for Wish/Exit/Deliver/
   Crash, the payload a node id or a packed message (< 2^59, {!Bag}).
   Each stored state also records [sigma], the index of the automorphism
   mapping the concrete reachable state to the stored canonical
   representative (0 whenever symmetry is off). *)

let label_of = function
  | Machine.Wish i -> i lsl 2
  | Machine.Exit i -> 1 lor (i lsl 2)
  | Machine.Deliver m -> 2 lor (m lsl 2)
  | Machine.Crash i -> 3 lor (i lsl 2)

let transition_of_label l =
  match l land 3 with
  | 0 -> Machine.Wish (l lsr 2)
  | 1 -> Machine.Exit (l lsr 2)
  | 2 -> Machine.Deliver (l lsr 2)
  | _ -> Machine.Crash (l lsr 2)

(* --- trace reconstruction ------------------------------------------------- *)

(* Stored labels live on the canonical side of each expansion: the edge
   into state [id] was found while expanding the canonical parent
   [c = sigma_parent(r)], so the concrete label is the stored one pulled
   back through [sigma_parent^-1]; the concrete violating state is the
   stored canonical pulled back through its own [sigma^-1]. With
   symmetry off every sigma is the identity and both are no-ops. *)

(* [sym] pairs the group table with the per-state sigma vector. *)
let concretize_label sym parents labels id =
  let label = transition_of_label (ibuf_get labels id) in
  match sym with
  | None -> label
  | Some (t, sigmas) ->
    let sigma_parent = ibuf_get sigmas (ibuf_get parents id) in
    Machine.relabel_transition (Symmetry.perm t (Symmetry.inverse t sigma_parent))
      label

let concretize_state sym id st =
  match sym with
  | None -> st
  | Some (t, sigmas) ->
    let sigma = ibuf_get sigmas id in
    Machine.relabel (Symmetry.perm t (Symmetry.inverse t sigma)) st

(* The concrete transition labels along the BFS tree path from the
   initial state to state [id]. *)
let trace_to sym parents labels id =
  let rec path id acc =
    if id <= 0 then acc else path (ibuf_get parents id) (id :: acc)
  in
  List.map (concretize_label sym parents labels) (path id [])

(* --- serial BFS ----------------------------------------------------------- *)

(* The hot loop is fused: each successor is encoded, deduplicated and
   invariant-checked by the {!Machine.iter_transitions} callback the
   moment it is built — fresh states are checked here (once, at first
   discovery) rather than when dequeued, which visits the same set of
   states.

   The BFS queue is a growable array of keys (the strings the visited set
   already holds, so a queued state costs one pointer), decoded when
   dequeued; it is indexed by a read cursor: every state is pushed exactly
   once, so the array doubles like a vector and nothing is ever shifted;
   the queue position is the state's id, which indexes the parent/label
   vectors that traces are rebuilt from. Depth is tracked with level marks
   ([level_end] is the queue index where the current BFS level ends)
   instead of a per-entry counter. *)
let run_serial ~max_states ~max_faults ~variant ~p ~wishes =
  let initial = Machine.initial ~p ~wishes in
  (match Machine.check_invariants initial with
  | Ok () -> ()
  | Error message -> raise (Violation { message; state = initial; trace = [] }));
  let visited = Keyset.create 1_024 in
  let queue = sbuf_create () in
  let parents = ibuf_create ()
  and labels = ibuf_create () in
  let head = ref 0 in
  let states = ref 0
  and transitions = ref 0
  and terminals = ref 0
  and max_in_flight = ref 0
  and max_depth = ref 0 in
  let parent_id = ref 0 in
  let on_successor tr st' =
    incr transitions;
    let key, fl = Machine.encode_len st' in
    if Keyset.add_if_absent visited key then begin
      (match Machine.check_invariants st' with
      | Ok () -> ()
      | Error message ->
        raise
          (Violation
             {
               message;
               state = st';
               trace = trace_to None parents labels !parent_id @ [ tr ];
             }));
      incr states;
      if !states > max_states then too_big max_states;
      if fl > !max_in_flight then max_in_flight := fl;
      sbuf_push queue key;
      ibuf_push parents !parent_id;
      ibuf_push labels (label_of tr)
    end
  in
  let key0, fl0 = Machine.encode_len initial in
  ignore (Keyset.add_if_absent visited key0 : bool);
  sbuf_push queue key0;
  states := 1;
  max_in_flight := fl0;
  ibuf_push parents (-1);
  ibuf_push labels 0;
  let level_end = ref 1 in
  while !head < queue.slen do
    if !head = !level_end then begin
      incr max_depth;
      level_end := queue.slen
    end;
    let st = Machine.decode queue.strs.(!head) in
    parent_id := !head;
    queue.strs.(!head) <- "";
    incr head;
    let succs = Machine.iter_transitions ~max_faults ~variant st on_successor in
    if succs = 0 then begin
      incr terminals;
      match Machine.check_terminal st with
      | Ok () -> ()
      | Error msg ->
        raise
          (Violation
             {
               message = "terminal: " ^ msg;
               state = st;
               trace = trace_to None parents labels !parent_id;
             })
    end
  done;
  {
    states = !states;
    transitions = !transitions;
    terminals = !terminals;
    max_in_flight = !max_in_flight;
    max_depth = !max_depth;
    orbit_states = !states;
    spilled_segments = 0;
    spilled_bytes = 0;
  }

(* --- level-synchronous BFS ------------------------------------------------ *)

(* The engine behind [jobs > 1], [~symmetry] and [~mem_budget] — in any
   combination. The frontier holds packed keys only (canonical keys when
   symmetry is on); states are decoded at expansion time. Each level is
   streamed in fixed-size chunks:

   1. Expand (parallel): every chunk key is decoded, invariant-checked
      and expanded on some domain; each successor comes back
      canonicalized with its key, hash shard, in-flight count, orbit
      size, transition label and composed automorphism index. Failures
      are *returned*, not raised, and the serial scan below reports the
      lowest-frontier-index one — the same violation at every width.

   2. Dedup (parallel): the visited set is sharded by key hash over a
      fixed shard count (independent of [jobs]), one shard owner per
      parallel index, inserting fresh keys in (frontier index, successor
      index) order.

   3. Assemble (serial): fresh states get consecutive ids in (shard,
      discovery) order; their parent/meta words are appended and their
      keys pushed onto the next level, spilling front-coded segments to
      temp files whenever the in-memory run exceeds the byte budget.

   Chunking never changes what is fresh (the visited shards carry across
   chunks) and the shard count never depends on the pool width, so ids,
   traces and stats are bit-identical at every [jobs] — and segments are
   written and read back in discovery order, so spilling is invisible to
   everything but the spill counters. *)

let shard_count = 64
let chunk_cap = 2_048

type expand_result =
  | Succs of (int * string * int * int * int * int) array
      (* shard, key, in-flight, orbit, label, composed sigma *)
  | Term  (* terminal, check passed *)
  | Bad of string * Machine.state  (* check failed on the expanded state *)

let run_levelwise ~max_states ~pool ~max_faults ~variant ~sym ~mem_budget ~p
    ~wishes =
  let visited = Array.init shard_count (fun _ -> Keyset.create 4_096) in
  let shard_of st = Machine.hash st mod shard_count in
  let parents = ibuf_create ()
  and labels = ibuf_create ()
  and sigmas = ibuf_create () in
  let states = ref 0
  and transitions = ref 0
  and terminals = ref 0
  and max_in_flight = ref 0
  and max_depth = ref 0
  and orbit_states = ref 0
  and spilled_segments = ref 0
  and spilled_bytes = ref 0 in
  let canon st =
    match sym with
    | Some t ->
      let c = Symmetry.canonicalize t st in
      ( c.Symmetry.key,
        c.Symmetry.hash mod shard_count,
        c.Symmetry.in_flight,
        c.Symmetry.perm_index,
        c.Symmetry.orbit )
    | None ->
      let key, fl = Machine.encode_len st in
      (key, shard_of st, fl, 0, 1)
  in
  let cert = Option.map (fun t -> (t, sigmas)) sym in
  let compose_sigma pi sigma =
    match sym with None -> 0 | Some t -> Symmetry.compose t pi sigma
  in
  let raise_bad ~id ~message ~canonical_state =
    raise
      (Violation
         {
           message;
           state = concretize_state cert id canonical_state;
           trace = trace_to cert parents labels id;
         })
  in
  (* next-level accumulation, spilling past the byte budget *)
  let budget = match mem_budget with None -> max_int | Some b -> max 1 b in
  let all_segments = ref [] in
  let next = sbuf_create ()
  and next_segments = ref []
  and next_count = ref 0
  and next_bytes = ref 0 in
  let push_next key =
    sbuf_push next key;
    incr next_count;
    next_bytes := !next_bytes + String.length key + 24;
    if !next_bytes > budget then begin
      let seg = Spill.write next.strs ~pos:0 ~len:next.slen in
      all_segments := seg :: !all_segments;
      next_segments := seg :: !next_segments;
      incr spilled_segments;
      spilled_bytes := !spilled_bytes + Spill.bytes seg;
      sbuf_reset next;
      next_bytes := 0
    end
  in
  let take_next () =
    let segs = List.rev !next_segments in
    let mem = sbuf_snapshot next in
    let total = !next_count in
    next_segments := [];
    sbuf_reset next;
    next_bytes := 0;
    next_count := 0;
    (segs, mem, total)
  in
  (* expansion worker: pure apart from shared read-only tables *)
  let expand key sigma_parent =
    let st = Machine.decode key in
    match Machine.check_invariants st with
    | Error message -> Bad (message, st)
    | Ok () ->
      let acc = ref [] in
      let n =
        Machine.iter_transitions ~max_faults ~variant st (fun tr st' ->
            let key', shard, fl', pi, orbit = canon st' in
            acc :=
              ( shard, key', fl', orbit, label_of tr,
                compose_sigma pi sigma_parent )
              :: !acc)
      in
      if n = 0 then
        match Machine.check_terminal st with
        | Ok () -> Term
        | Error msg -> Bad ("terminal: " ^ msg, st)
      else Succs (Array.of_list (List.rev !acc))
  in
  let chunk_keys = Array.make chunk_cap "" in
  let process_chunk ~chunk_base ~len =
    let results =
      Pool.map_array pool ~n:len (fun i ->
          let sigma = ibuf_get sigmas (chunk_base + i) in
          expand chunk_keys.(i) sigma)
    in
    Array.iteri
      (fun i r ->
        match r with
        | Bad (message, st) ->
          raise_bad ~id:(chunk_base + i) ~message ~canonical_state:st
        | Term -> incr terminals
        | Succs a -> transitions := !transitions + Array.length a)
      results;
    let fresh = Array.make shard_count [||] in
    Pool.parallel_for pool ~n:shard_count (fun s ->
        let tbl = visited.(s) in
        let acc = ref []
        and count = ref 0 in
        Array.iteri
          (fun i r ->
            match r with
            | Term | Bad _ -> ()
            | Succs a ->
              Array.iter
                (fun ((sh, key, _, _, _, _) as e) ->
                  if sh = s && Keyset.add_if_absent tbl key then begin
                    acc := (chunk_base + i, e) :: !acc;
                    incr count
                  end)
                a)
          results;
        let arr = Array.make !count (0, (0, "", 0, 0, 0, 0)) in
        List.iteri (fun k x -> arr.(!count - 1 - k) <- x) !acc;
        fresh.(s) <- arr);
    Array.iter
      (fun arr ->
        Array.iter
          (fun (parent_id, (_, key, fl, orbit, label, sigma)) ->
            incr states;
            if !states > max_states then too_big max_states;
            orbit_states := !orbit_states + orbit;
            if fl > !max_in_flight then max_in_flight := fl;
            ibuf_push parents parent_id;
            ibuf_push labels label;
            ibuf_push sigmas sigma;
            push_next key)
          arr)
      fresh
  in
  (* seed *)
  let initial = Machine.initial ~p ~wishes in
  (match Machine.check_invariants initial with
  | Ok () -> ()
  | Error message -> raise (Violation { message; state = initial; trace = [] }));
  let key0, shard0, fl0, pi0, orbit0 = canon initial in
  ignore (Keyset.add_if_absent visited.(shard0) key0 : bool);
  ibuf_push parents (-1);
  ibuf_push labels 0;
  ibuf_push sigmas pi0;
  states := 1;
  orbit_states := orbit0;
  max_in_flight := fl0;
  push_next key0;
  Fun.protect
    ~finally:(fun () -> List.iter Spill.remove !all_segments)
    (fun () ->
      let level = ref 0
      and base = ref 0 in
      let running = ref true in
      while !running do
        let segs, mem, total = take_next () in
        if total = 0 then running := false
        else begin
          max_depth := !level;
          let processed = ref 0
          and fill = ref 0 in
          let flush () =
            if !fill > 0 then begin
              process_chunk ~chunk_base:(!base + !processed) ~len:!fill;
              processed := !processed + !fill;
              fill := 0
            end
          in
          let feed key =
            chunk_keys.(!fill) <- key;
            incr fill;
            if !fill = chunk_cap then flush ()
          in
          List.iter (fun seg -> Spill.iter seg feed) segs;
          Array.iter feed mem;
          flush ();
          List.iter Spill.remove segs;
          base := !base + total;
          incr level
        end
      done);
  {
    states = !states;
    transitions = !transitions;
    terminals = !terminals;
    max_in_flight = !max_in_flight;
    max_depth = !max_depth;
    orbit_states = !orbit_states;
    spilled_segments = !spilled_segments;
    spilled_bytes = !spilled_bytes;
  }

(* --- entry points --------------------------------------------------------- *)

let run ?(max_states = 5_000_000) ?(jobs = 1) ?(max_faults = 0)
    ?(variant = Machine.Faithful) ?(symmetry = false) ?mem_budget ~p ~wishes ()
    =
  let sym = if symmetry then Some (Symmetry.table ~p) else None in
  match (sym, mem_budget) with
  | None, None when jobs <= 1 -> run_serial ~max_states ~max_faults ~variant ~p ~wishes
  | _ ->
    Pool.with_pool ~jobs (fun pool ->
        run_levelwise ~max_states ~pool ~max_faults ~variant ~sym ~mem_budget
          ~p ~wishes)

let replay ?(max_faults = 0) ?(variant = Machine.Faithful) ~p ~wishes trace =
  List.fold_left
    (fun st tr ->
      match
        List.find_opt
          (fun (t, _) -> label_of t = label_of tr)
          (Machine.transitions ~max_faults ~variant st)
      with
      | Some (_, st') -> st'
      | None ->
        failwith
          (Format.asprintf "Explore.replay: %a is not enabled"
             Machine.pp_transition tr))
    (Machine.initial ~p ~wishes)
    trace

let pp_trace ppf trace =
  List.iteri
    (fun k tr ->
      if k > 0 then Format.pp_print_string ppf "; ";
      Machine.pp_transition ppf tr)
    trace
