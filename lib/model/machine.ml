module Algo = Ocube_mutex.Opencube_algo
module Core = Algo.Make (Bag)
module Image = Algo.Image
module Opencube = Ocube_topology.Opencube

type state = {
  nodes : int array;
  in_flight : int;
  env : int array;
  bag : int list;
}

type transition = Wish of int | Exit of int | Deliver of int | Crash of int

type variant = Faithful | Duplicating_link

let num_nodes st = Array.length st.env

let log2 n =
  let rec go acc m = if m <= 1 then acc else go (acc + 1) (m lsr 1) in
  go 0 n

let dead_count st =
  Array.fold_left (fun k w -> if w < 0 then k + 1 else k) 0 st.env

let same_ints (a : int array) (b : int array) =
  let n = Array.length a in
  let rec same k = k = n || (a.(k) = b.(k) && same (k + 1)) in
  n = Array.length b && same 0

(* --- the node table ------------------------------------------------------------ *)

(* Every distinct node, its block and queue as {!Image.nodes} splits them,
   is stored once per process under a small id, and a state holds one id
   per node: a successor shares every node its step did not touch, and a
   key is a few bytes per node. Ids are handed out under a lock, in
   discovery order, and an entry never changes once written. A domain
   reads only ids that came from a state built after they were written
   (by it, or handed over through the explorer's synchronisation), so
   reads take no lock. *)
let hash_ints (a : int array) =
  let h = ref 0 in
  for k = 0 to Array.length a - 1 do
    h := (!h * 65599) + Array.unsafe_get a k
  done;
  !h land max_int

module Words = Hashtbl.Make (struct
  type t = int array

  let equal = same_ints
  let hash = hash_ints
end)

let lock = Mutex.create ()
let ids : int Words.t = Words.create 1024
let table = Atomic.make (Array.make 1024 [||])

let intern (w : int array) =
  Mutex.protect lock (fun () ->
      match Words.find_opt ids w with
      | Some id -> id
      | None ->
        let id = Words.length ids in
        let t = Atomic.get table in
        let t =
          if id < Array.length t then t
          else begin
            let t' = Array.make (2 * id) [||] in
            Array.blit t 0 t' 0 id;
            t'
          end
        in
        t.(id) <- w;
        Atomic.set table t;
        Words.add ids w id;
        id)

let[@inline] words id = (Atomic.get table).(id)

let of_image img ~env ~bag =
  {
    nodes = Array.map intern (Image.nodes ~n:(Array.length env) img);
    in_flight = img.(0);
    env;
    bag;
  }

let image st = Image.assemble ~in_flight:st.in_flight (Array.map words st.nodes)

let[@inline] flags st i = (words st.nodes.(i)).(Image.flags)

(* The image-level view of a state, for the checks and the crash
   abstraction, which read every node. *)
type view = { img : int array; venv : int array; vbag : int list }

let view st = { img = image st; venv = st.env; vbag = st.bag }

(* Field [f] of node [i]'s block. *)
let[@inline] field v i f = v.img.(Image.header + (i * Image.stride) + f)
let[@inline] alive v i = v.venv.(i) >= 0

(* --- the core and its node-local steps ---------------------------------------- *)

(* A Section 3 handler is one node's step: it reads that node's state and
   the operation (a wish, an exit, or the message delivered), writes only
   that node's state, sends messages and moves the in-flight tally. Its
   effect is therefore a function of the operation and the node, and each
   distinct pair runs through the core once, loaded with the whole state;
   every other state with the same pair reuses the effect. A run that
   writes another node raises, and the test suite checks every transition
   of the p <= 2 explorations against a fresh run of the core on the whole
   state (DESIGN.md §12.4). *)
type effect = {
  node : int;  (* the node's new id *)
  sent : int list;
  flying : int;  (* change to the in-flight tally *)
}

module Steps = Hashtbl.Make (struct
  type t = int * int  (* operation code, node id *)

  let equal ((a : int), (b : int)) (c, d) = a = c && b = d

  let hash (op, id) =
    let h = (op * 0x9e3779b1) + id in
    (h lxor (h lsr 29)) land max_int
end)

module Perms = Hashtbl.Make (struct
  type t = int array

  let equal = same_ints
  let hash = hash_ints
end)

(* One core per domain, with the steps it has run and, per permutation,
   the node renamings it has made. *)
type machine = {
  p : int;
  rt : Bag.t;
  core : Core.t;
  steps : effect Steps.t;
  renamed : (int, int) Hashtbl.t Perms.t;
}

let fresh_core ~p =
  let rt = Bag.create ~n:(1 lsl p) in
  let core =
    Core.create ~net:rt ~callbacks:Ocube_mutex.Types.null_callbacks
      ~config:{ (Algo.default_config ~p) with fault_tolerance = false }
  in
  { p; rt; core; steps = Steps.create 1024; renamed = Perms.create 16 }

let scratch : machine option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let machine_of st =
  let p = log2 (num_nodes st) in
  let r = Domain.DLS.get scratch in
  match !r with
  | Some m when m.p = p -> m
  | _ ->
    let m = fresh_core ~p in
    r := Some m;
    m

let load m st =
  Core.load m.core (image st);
  Bag.set_bag m.rt st.bag;
  for i = 0 to Array.length st.env - 1 do
    Bag.set_failed m.rt i (st.env.(i) < 0)
  done

let initial ~p ~wishes =
  if p < 0 || p > 10 then invalid_arg "Machine.initial: p outside [0, 10]";
  if wishes < 0 || wishes >= Bag.max_seq then
    invalid_arg "Machine.initial: wishes out of range";
  let m = fresh_core ~p in
  of_image (Core.export m.core) ~env:(Array.make (1 lsl p) wishes) ~bag:[]

(* The elements of sorted [a] that are not in sorted [b], as multisets. *)
let rec sorted_diff (a : int list) (b : int list) =
  match (a, b) with
  | [], _ -> []
  | _, [] -> a
  | x :: a', y :: b' ->
    if x < y then x :: sorted_diff a' b
    else if x > y then sorted_diff a b'
    else sorted_diff a' b'

(* Run the operation through the core on the whole of [st], record its
   effect on node [i], and check that it changed no other node. *)
let run_core m st tr ~i ~bag key =
  load m st;
  (match tr with
  | Wish _ -> Core.request_cs m.core i
  | Exit _ -> Core.release_cs m.core i
  | Deliver msg -> Bag.deliver m.rt ~keep:false msg
  | Crash _ -> ());
  let after = of_image (Core.export m.core) ~env:st.env ~bag:[] in
  Array.iteri
    (fun j id ->
      if j <> i && id <> st.nodes.(j) then
        invalid_arg
          (Printf.sprintf "Machine: an operation on node %d changed node %d" i j))
    after.nodes;
  let e =
    {
      node = after.nodes.(i);
      sent = sorted_diff (Bag.bag m.rt) bag;
      flying = after.in_flight - st.in_flight;
    }
  in
  Steps.add m.steps key e;
  e

let step m ~variant st tr =
  let i, op, bag =
    match tr with
    | Wish i -> (i, -1, st.bag)
    | Exit i -> (i, -2, st.bag)
    | Deliver msg -> (Bag.dst msg, msg, Bag.remove msg st.bag)
    | Crash _ -> invalid_arg "Machine.step: a crash is not a core operation"
  in
  let key = (op, st.nodes.(i)) in
  let e =
    match Steps.find_opt m.steps key with
    | Some e -> e
    | None -> run_core m st tr ~i ~bag key
  in
  let keep =
    match (variant, tr) with
    | Duplicating_link, Deliver msg ->
      Bag.is_token msg && Opencube.dist (Bag.src msg) i = m.p
    | (Faithful | Duplicating_link), (Wish _ | Exit _ | Deliver _ | Crash _) ->
      false
  in
  let env =
    match tr with
    | Wish i ->
      let env = Array.copy st.env in
      env.(i) <- env.(i) - 1;
      env
    | Exit _ | Deliver _ | Crash _ -> st.env
  in
  let nodes = Array.copy st.nodes in
  nodes.(i) <- e.node;
  {
    nodes;
    in_flight = st.in_flight + e.flying;
    env;
    bag =
      List.fold_left
        (fun b msg -> Bag.insert msg b)
        (if keep then st.bag else bag)
        e.sent;
  }

(* --- crashes ----------------------------------------------------------------- *)

let crashable_in v i =
  alive v i
  && field v i Image.father >= 0
  && field v i Image.flags = 0
  && field v i Image.queue_len = 0
  && field v i Image.loan = 0
  && field v i Image.mandator < 0
  && (not (List.exists (fun m -> Bag.names m i) v.vbag))
  && not (Image.names_node ~n:(Array.length v.venv) v.img i)

let crashable st i = crashable_in (view st) i

let crash v i =
  let img = Array.copy v.img in
  let fi = field v i Image.father in
  for j = 0 to Array.length v.venv - 1 do
    if alive v j && field v j Image.father = i then
      img.(Image.block j + Image.father) <- fi
  done;
  Image.retire img i;
  let env = Array.copy v.venv in
  env.(i) <- -1;
  of_image img ~env ~bag:v.vbag

(* --- transitions ----------------------------------------------------------- *)

let iter_transitions ?(max_faults = 0) ?(variant = Faithful) st f =
  let m = machine_of st in
  let n = num_nodes st in
  let count = ref 0 in
  let go tr =
    incr count;
    f tr (step m ~variant st tr)
  in
  for i = 0 to n - 1 do
    if st.env.(i) >= 0 then begin
      let fl = flags st i in
      if fl land Image.in_cs <> 0 then go (Exit i);
      if st.env.(i) > 0 && fl land (Image.asking lor Image.in_cs) = 0 then
        go (Wish i)
    end
  done;
  let rec deliveries prev = function
    | [] -> ()
    | msg :: rest ->
      if msg <> prev then go (Deliver msg);
      deliveries msg rest
  in
  deliveries (-1) st.bag;
  if max_faults > 0 && dead_count st < max_faults then begin
    let v = view st in
    for i = 0 to n - 1 do
      if crashable_in v i then begin
        incr count;
        f (Crash i) (crash v i)
      end
    done
  end;
  !count

let transitions ?max_faults ?variant st =
  let acc = ref [] in
  let (_ : int) =
    iter_transitions ?max_faults ?variant st (fun tr st' ->
        acc := (tr, st') :: !acc)
  in
  List.rev !acc

(* --- invariants -------------------------------------------------------------- *)

let unknown st j = j >= num_nodes st || (j >= 0 && st.env.(j) < 0)

let names_unknown st msg =
  let w = Bag.rid msg in
  unknown st (Bag.src msg)
  || unknown st (Bag.dst msg)
  || unknown st (Bag.who msg)
  || (w <> 0 && unknown st (Image.rid_source w))

(* Checked on every explored state after the core's own verdict, on the
   nodes' words [ws]: the happy path allocates nothing, so errors are
   built lazily. *)
let check_extra st ws =
  let error = ref None in
  let set_err f = if Option.is_none !error then error := Some f in
  let held = ref 0 in
  Array.iteri
    (fun i (w : int array) ->
      let fl = w.(Image.flags) in
      if st.env.(i) < 0 then begin
        if not (Image.is_retired w i) then
          set_err (fun () -> Printf.sprintf "dead node %d has live state" i)
      end
      else begin
        if fl land Image.token <> 0 then incr held;
        if fl land Image.in_cs <> 0 && fl land Image.token = 0 then
          set_err (fun () -> Printf.sprintf "node %d in CS without the token" i);
        if fl land Image.asking = 0 && w.(Image.queue_len) > 0 then
          set_err (fun () -> Printf.sprintf "idle node %d has a non-empty queue" i);
        let f = w.(Image.father) in
        if f >= 0 && st.env.(f) < 0 then
          set_err (fun () -> Printf.sprintf "live node %d's father %d is dead" i f)
      end)
    ws;
  let rec scan flying = function
    | [] -> flying
    | msg :: rest ->
      if names_unknown st msg then
        set_err (fun () ->
            Format.asprintf "message %a names a dead or unknown node" Bag.pp msg);
      scan (flying + Bool.to_int (Bag.is_token msg)) rest
  in
  let flying = scan 0 st.bag in
  if !held + flying <> 1 then begin
    let held = !held in
    set_err (fun () ->
        Printf.sprintf "token count %d (held %d, flying %d)" (held + flying) held
          flying)
  end;
  match !error with None -> Ok () | Some f -> Error (f ())

let check_invariants st =
  let ws = Array.map words st.nodes in
  match Image.invariant_check ~in_flight:st.in_flight ws with
  | Error _ as e -> e
  | Ok () -> check_extra st ws

let check_terminal st =
  let n = num_nodes st in
  let v = view st in
  let errors = ref [] in
  let err s = errors := s :: !errors in
  for i = n - 1 downto 0 do
    if alive v i then begin
      let fl = field v i Image.flags in
      if st.env.(i) > 0 then err (Printf.sprintf "node %d still has wishes (deadlock)" i);
      if fl land Image.asking <> 0 then
        err (Printf.sprintf "node %d still asking (deadlock)" i);
      if fl land Image.in_cs <> 0 then err (Printf.sprintf "node %d stuck in CS" i);
      if fl land Image.token <> 0 then begin
        if field v i Image.father >= 0 then
          err (Printf.sprintf "holder %d is not the root" i);
        if field v i Image.lender <> i then
          err
            (Printf.sprintf "holder %d owes the token to %d" i
               (field v i Image.lender))
      end
    end
  done;
  if not (List.is_empty st.bag) then err "messages still in flight";
  (if dead_count st = 0 then begin
     let m = machine_of st in
     load m st;
     match Core.check_opencube m.core with
     | Ok () -> ()
     | Error e -> err ("not an open-cube: " ^ e)
   end
   else begin
     (* Crashes excise nodes, so the survivors cannot form a full 2^p
        open cube; what the recovery guarantees is a rooted tree: one live
        root that every live node reaches. *)
     let roots = ref 0 in
     for i = 0 to n - 1 do
       if alive v i && field v i Image.father < 0 then incr roots
     done;
     if !roots <> 1 then
       err (Printf.sprintf "%d live roots after faults (want 1)" !roots);
     for i = 0 to n - 1 do
       if alive v i then begin
         let rec climb j steps =
           if steps > n then
             err (Printf.sprintf "father cycle through node %d after faults" i)
           else
             let f = field v j Image.father in
             if f >= 0 then climb f (steps + 1)
         in
         climb i 0
       end
     done
   end);
  match !errors with [] -> Ok () | e :: _ -> Error e

(* --- key codec ----------------------------------------------------------------- *)

(* Every field is at least -1 and is written as the LEB128 varint of
   [v + 1], so the key is injective. Layout: n, the env words, the
   in-flight tally, the node ids, the bag length, then per message its
   source, destination, kind, [who] and request id word ({!Bag}). Node
   ids are this process's: a key is meaningful only where it was made. *)

let scratch_key = Domain.DLS.new_key (fun () -> ref (Bytes.create 1024))

let rec put_long b pos v =
  if v < 128 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr v);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (v land 127 lor 128));
    put_long b (pos + 1) (v lsr 7)
  end

(* The varint of [v + 1] at [pos]; returns the position after it. *)
let[@inline] put b pos v =
  let v = v + 1 in
  if v < 128 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr v);
    pos + 1
  end
  else put_long b pos v

let rec put_bag b pos = function
  | [] -> pos
  | msg :: rest ->
    let pos = put b pos (Bag.src msg) in
    let pos = put b pos (Bag.dst msg) in
    let pos = put b pos (Bool.to_int (Bag.is_token msg)) in
    let pos = put b pos (Bag.who msg) in
    put_bag b (put b pos (Bag.rid msg)) rest

let encode_len st =
  let n = num_nodes st in
  let fl = List.length st.bag in
  let r = Domain.DLS.get scratch_key in
  let need = 10 * (3 + (2 * n) + (5 * fl)) in
  if Bytes.length !r < need then r := Bytes.create (2 * need);
  let b = !r in
  let pos = ref (put b 0 n) in
  for i = 0 to n - 1 do
    pos := put b !pos (Array.unsafe_get st.env i)
  done;
  pos := put b !pos st.in_flight;
  for i = 0 to n - 1 do
    pos := put b !pos (Array.unsafe_get st.nodes i)
  done;
  (Bytes.sub_string b 0 (put_bag b (put b !pos fl) st.bag), fl)

let encode st = fst (encode_len st)

let rec get_long s pos v shift =
  let c = Char.code s.[!pos] in
  incr pos;
  let v = v lor ((c land 127) lsl shift) in
  if c < 128 then v - 1 else get_long s pos v (shift + 7)

(* The varint at [!pos], minus one; advances [pos]. *)
let[@inline] get s pos =
  let c = Char.code (String.unsafe_get s !pos) in
  incr pos;
  if c < 128 then c - 1 else get_long s pos (c land 127) 7

let decode s =
  let pos = ref 0 in
  let n = get s pos in
  let env = Array.make n 0 in
  for i = 0 to n - 1 do
    env.(i) <- get s pos
  done;
  let in_flight = get s pos in
  let nodes = Array.make n 0 in
  for i = 0 to n - 1 do
    nodes.(i) <- get s pos
  done;
  let rec msgs m =
    if m = 0 then []
    else
      let src = get s pos in
      let dst = get s pos in
      let token = get s pos = 1 in
      let who = get s pos in
      let msg = Bag.of_fields ~src ~dst ~token ~who ~rid:(get s pos) in
      msg :: msgs (m - 1)
  in
  { nodes; in_flight; env; bag = msgs (get s pos) }

(* --- content order ----------------------------------------------------------- *)

(* Node ids depend on the order in which nodes were first met, which
   differs between runs and, under [--jobs], between schedules; these two
   look through the ids to the nodes' words, so they are the same in
   every run. *)

let rec compare_words (a : int array) (b : int array) k =
  if k = Array.length a || k = Array.length b then
    Int.compare (Array.length a) (Array.length b)
  else
    let c = Int.compare a.(k) b.(k) in
    if c <> 0 then c else compare_words a b (k + 1)

let compare a b =
  let n = num_nodes a in
  let rec nodes i =
    if i = n then List.compare Int.compare a.bag b.bag
    else
      let x = a.nodes.(i) and y = b.nodes.(i) in
      let c = if x = y then 0 else compare_words (words x) (words y) 0 in
      if c <> 0 then c else nodes (i + 1)
  in
  let c = Int.compare n (num_nodes b) in
  if c <> 0 then c
  else
    let c = compare_words a.env b.env 0 in
    if c <> 0 then c
    else
      let c = Int.compare a.in_flight b.in_flight in
      if c <> 0 then c else nodes 0

let hash st =
  let mix h v = (h * 65599) + v in
  let h = Array.fold_left mix st.in_flight st.env in
  let h = Array.fold_left (fun h id -> mix h (hash_ints (words id))) h st.nodes in
  List.fold_left mix h st.bag land max_int

(* --- relabeling ------------------------------------------------------------- *)

let relabel perm st =
  let n = num_nodes st in
  let m = machine_of st in
  let renamed =
    match Perms.find_opt m.renamed perm with
    | Some r -> r
    | None ->
      let r = Hashtbl.create 256 in
      Perms.add m.renamed (Array.copy perm) r;
      r
  in
  let nodes = Array.make n 0 and env = Array.make n 0 in
  for i = 0 to n - 1 do
    let id = st.nodes.(i) in
    nodes.(perm.(i)) <-
      (match Hashtbl.find_opt renamed id with
      | Some id' -> id'
      | None ->
        let id' = intern (Image.relabel_node perm (words id)) in
        Hashtbl.add renamed id id';
        id');
    env.(perm.(i)) <- st.env.(i)
  done;
  {
    nodes;
    in_flight = st.in_flight;
    env;
    bag = List.sort Int.compare (List.map (Bag.rename perm) st.bag);
  }

let relabel_transition perm = function
  | Wish i -> Wish perm.(i)
  | Exit i -> Exit perm.(i)
  | Crash i -> Crash perm.(i)
  | Deliver m -> Deliver (Bag.rename perm m)

(* --- printing ----------------------------------------------------------------- *)

let pp_transition ppf = function
  | Wish i -> Format.fprintf ppf "wish %d" i
  | Exit i -> Format.fprintf ppf "exit %d" i
  | Crash i -> Format.fprintf ppf "crash %d" i
  | Deliver m -> Format.fprintf ppf "deliver %a" Bag.pp m

let pp ppf st =
  let m = machine_of st in
  load m st;
  for i = 0 to num_nodes st - 1 do
    if st.env.(i) >= 0 then
      Format.fprintf ppf "%s wishes=%d@." (Core.describe m.core i) st.env.(i)
    else Format.fprintf ppf "node %d: DEAD@." i
  done;
  List.iter (fun msg -> Format.fprintf ppf "flight: %a@." Bag.pp msg) st.bag
