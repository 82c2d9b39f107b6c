module Network = Ocube_net.Network
module Runner = Ocube_mutex.Runner
module Rng = Ocube_sim.Rng
module Arrivals = Ocube_workload.Arrivals

module Spec = Ocube_proc.Spec

type algo = Spec.algo =
  | Opencube
  | Raymond
  | Naimi_trehel
  | Central
  | Suzuki_kasami
  | Ricart_agrawala

let all_algos = Spec.all

let algo_name = Spec.name

type runtime = Des | Proc

let runtime_name = function Des -> "des" | Proc -> "proc"

let runtime_of_name = function
  | "des" -> Some Des
  | "proc" -> Some Proc
  | _ -> None

type t = {
  runtime : runtime;
  algo : algo;
  p : int;
  seed : int;
  delay : Network.delay_model;
  cs : Runner.cs_model;
  ft : bool;
  patience : float;
  lifo : bool;
  serial : bool;
  arrivals : (float * int) list;
  faults : (float * int * float option) list;
}

let nodes s = 1 lsl s.p

let params s = { Spec.p = s.p; ft = s.ft; patience = s.patience; lifo = s.lifo }

(* --- generation --------------------------------------------------------- *)

type gen_opts = {
  algos : algo list;
  max_p : int;
  with_faults : bool;
  runtime : runtime;
}

let default_opts =
  { algos = Spec.all; max_p = 5; with_faults = true; runtime = Des }

let cs_bound = function
  | Runner.Fixed d -> d
  | Runner.Exponential { cap; _ } -> cap

let take k l =
  let rec go k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: tl -> x :: go (k - 1) tl
  in
  go k l

let gen_delay rng =
  match Rng.int rng 3 with
  | 0 -> Network.Constant (0.5 +. Rng.float rng 1.5)
  | 1 ->
    let lo = 0.1 +. Rng.float rng 0.9 in
    Network.Uniform { lo; hi = lo +. 0.1 +. Rng.float rng 2.0 }
  | _ ->
    let mean = 0.2 +. Rng.float rng 1.0 in
    Network.Exponential { mean; cap = mean *. (2.0 +. Rng.float rng 4.0) }

let gen_cs rng =
  if Rng.int rng 4 = 0 then
    Runner.Exponential { mean = 0.3 +. Rng.float rng 1.5; cap = 8.0 }
  else Runner.Fixed (0.2 +. Rng.float rng 3.0)

(* Gap wide enough that a serial request is fully served (request climbs at
   most p+2 message hops, each <= delta, plus the CS itself) before the next
   arrival: under it the Section 4 per-request message bound is checkable. *)
let serial_gap ~p ~delay ~cs =
  (float_of_int (p + 3) *. Network.delay_bound delay) +. cs_bound cs +. 1.0

let gen_arrivals rng ~n ~serial ~p ~delay ~cs =
  if serial then
    Arrivals.serial_each_node_once ~n ~gap:(serial_gap ~p ~delay ~cs)
  else
    match Rng.int rng 4 with
    | 0 ->
      (* one or two synchronised bursts: maximal concurrency *)
      let subset at =
        let k = 2 + Rng.int rng (max 1 (n - 1)) in
        let perm = Rng.permutation rng n in
        Arrivals.burst ~nodes:(Array.to_list (Array.sub perm 0 (min k n))) ~at
      in
      let b = subset (Rng.float rng 3.0) in
      if Rng.bool rng then Arrivals.merge b (subset (5.0 +. Rng.float rng 20.0))
      else b
    | 1 ->
      let horizon = 20.0 +. Rng.float rng 80.0 in
      let hot = [ Rng.int rng n ] in
      take 80
        (Arrivals.hotspot ~rng ~n ~hot
           ~hot_rate:(8.0 /. horizon)
           ~cold_rate:(4.0 /. (horizon *. float_of_int n))
           ~horizon)
    | _ ->
      let horizon = 20.0 +. Rng.float rng 80.0 in
      let target = 3 + Rng.int rng 40 in
      let rate = float_of_int target /. (horizon *. float_of_int n) in
      take 80 (Arrivals.poisson ~rng ~n ~rate_per_node:rate ~horizon)

let gen_faults rng ~n =
  let count = 1 + Rng.int rng 3 in
  List.init count (fun _ ->
      let at = 2.0 +. Rng.float rng 60.0 in
      let node = Rng.int rng n in
      let recover =
        if Rng.int rng 3 < 2 then Some (3.0 +. Rng.float rng 50.0) else None
      in
      (at, node, recover))
  |> List.sort compare

let generate ~rng ~opts =
  let algos = if opts.algos = [] then Spec.all else opts.algos in
  let algo = Rng.choice rng (Array.of_list algos) in
  (* Process scenarios fork 2^p real processes per run and crash them for
     real: keep the cube small so a campaign stays seconds, not minutes. *)
  let max_p = if opts.runtime = Proc then min opts.max_p 3 else opts.max_p in
  let p = 1 + Rng.int rng (max 1 max_p) in
  let n = 1 lsl p in
  let seed = Rng.int rng 1_000_000 in
  let delay = gen_delay rng in
  let cs = gen_cs rng in
  let serial = Rng.int rng 5 = 0 in
  let faults =
    if opts.with_faults && algo = Opencube && (not serial) && Rng.bool rng
    then gen_faults rng ~n
    else []
  in
  (* SIGKILL is forever: the process runtime has no rejoin path. *)
  let faults =
    if opts.runtime = Proc then
      List.map (fun (t, i, _) -> (t, i, None)) faults
    else faults
  in
  (* Serial scenarios keep the fault machinery off so that ill-founded
     suspicions cannot inflate the per-request message count; any scenario
     with actual faults needs it on. *)
  let ft =
    if faults <> [] then true
    else if serial then false
    else algo = Opencube && Rng.int rng 3 = 0
  in
  let patience =
    if ft && Rng.bool rng then 2.0 +. Rng.float rng 3.0 else 1.0
  in
  let lifo = algo = Opencube && Rng.int rng 8 = 0 in
  let arrivals = gen_arrivals rng ~n ~serial ~p ~delay ~cs in
  (* real CS occupancy costs wall time; bound the per-scenario workload *)
  let arrivals = if opts.runtime = Proc then take 16 arrivals else arrivals in
  {
    runtime = opts.runtime;
    algo;
    p;
    seed;
    delay;
    cs;
    ft;
    patience;
    lifo;
    serial;
    arrivals;
    faults;
  }

let of_index ~fuzz_seed ~index ~opts =
  (* Splitmix-style per-index stream derivation: O(1) and collision-safe in
     practice, so scenario [i] is reproducible without replaying 0..i-1. *)
  let rng = Rng.create (fuzz_seed + (index * 0x2545F4914F6CDD1D)) in
  generate ~rng ~opts

(* --- shrinking ---------------------------------------------------------- *)

let remove_halves l =
  let m = List.length l in
  if m < 2 then []
  else
    let h = m / 2 in
    [ take h l; List.filteri (fun i _ -> i >= h) l ]

let remove_singles l =
  let m = List.length l in
  if m = 0 || m > 40 then []
  else List.init m (fun i -> List.filteri (fun j _ -> j <> i) l)

let shrink_candidates s =
  (* Dropping arrivals breaks the serial-spacing guarantee only if the gap
     property relied on every node appearing; it does not — wider gaps stay
     serial — but clearing the flag keeps the oracle conservative. *)
  let with_arrivals a = { s with arrivals = a; serial = false } in
  let arrival_halves = List.map with_arrivals (remove_halves s.arrivals) in
  let arrival_singles = List.map with_arrivals (remove_singles s.arrivals) in
  let fault_all = if s.faults = [] then [] else [ { s with faults = [] } ] in
  let fault_singles =
    List.map (fun f -> { s with faults = f }) (remove_singles s.faults)
  in
  let no_recover =
    if List.exists (fun (_, _, r) -> r <> None) s.faults then
      [ { s with faults = List.map (fun (a, n, _) -> (a, n, None)) s.faults } ]
    else []
  in
  let unit_delay =
    match s.delay with Network.Constant d -> d = 1.0 | _ -> false
  in
  let simpler_delay =
    if not unit_delay then
      [ { s with delay = Network.Constant 1.0; serial = false } ]
    else []
  in
  let unit_cs = match s.cs with Runner.Fixed d -> d = 1.0 | _ -> false in
  let simpler_cs =
    if not unit_cs then [ { s with cs = Runner.Fixed 1.0; serial = false } ]
    else []
  in
  let simpler_knobs =
    (if s.lifo then [ { s with lifo = false } ] else [])
    @ (if s.patience <> 1.0 then [ { s with patience = 1.0 } ] else [])
    @ if s.seed <> 0 then [ { s with seed = 0 } ] else []
  in
  let smaller_cube =
    if s.p > 1 then begin
      let n' = 1 lsl (s.p - 1) in
      [
        {
          s with
          p = s.p - 1;
          serial = false;
          arrivals = List.map (fun (t, i) -> (t, i mod n')) s.arrivals;
          faults = List.map (fun (t, i, r) -> (t, i mod n', r)) s.faults;
        };
      ]
    end
    else []
  in
  arrival_halves @ fault_all @ arrival_singles @ fault_singles @ no_recover
  @ simpler_delay @ simpler_cs @ simpler_knobs @ smaller_cube

(* --- replay scripts ----------------------------------------------------- *)

let fstr f = Printf.sprintf "%.17g" f

let delay_to_string = function
  | Network.Constant d -> Printf.sprintf "constant:%s" (fstr d)
  | Network.Uniform { lo; hi } ->
    Printf.sprintf "uniform:%s:%s" (fstr lo) (fstr hi)
  | Network.Exponential { mean; cap } ->
    Printf.sprintf "exponential:%s:%s" (fstr mean) (fstr cap)

let cs_to_string = function
  | Runner.Fixed d -> Printf.sprintf "fixed:%s" (fstr d)
  | Runner.Exponential { mean; cap } ->
    Printf.sprintf "exp:%s:%s" (fstr mean) (fstr cap)

let arrivals_to_string = function
  | [] -> "-"
  | l ->
    String.concat ";"
      (List.map (fun (t, i) -> Printf.sprintf "%s@%d" (fstr t) i) l)

let faults_to_string = function
  | [] -> "-"
  | l ->
    String.concat ";"
      (List.map
         (fun (t, i, r) ->
           match r with
           | None -> Printf.sprintf "%s@%d" (fstr t) i
           | Some d -> Printf.sprintf "%s@%d!%s" (fstr t) i (fstr d))
         l)

let to_string (s : t) =
  Printf.sprintf
    "runtime=%s algo=%s p=%d seed=%d delay=%s cs=%s ft=%b patience=%s \
     lifo=%b serial=%b arrivals=%s faults=%s"
    (runtime_name s.runtime) (Spec.name s.algo) s.p s.seed
    (delay_to_string s.delay) (cs_to_string s.cs) s.ft (fstr s.patience)
    s.lifo s.serial
    (arrivals_to_string s.arrivals)
    (faults_to_string s.faults)

let pp ppf s = Format.pp_print_string ppf (to_string s)

exception Parse of string

let pfail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt

let float_field name v =
  match float_of_string_opt v with
  | Some f -> f
  | None -> pfail "%s: bad float %S" name v

let int_field name v =
  match int_of_string_opt v with
  | Some i -> i
  | None -> pfail "%s: bad int %S" name v

let bool_field name v =
  match bool_of_string_opt v with
  | Some b -> b
  | None -> pfail "%s: bad bool %S" name v

let delay_of_string v =
  match String.split_on_char ':' v with
  | [ "constant"; d ] -> Network.Constant (float_field "delay" d)
  | [ "uniform"; lo; hi ] ->
    Network.Uniform { lo = float_field "delay" lo; hi = float_field "delay" hi }
  | [ "exponential"; mean; cap ] ->
    Network.Exponential
      { mean = float_field "delay" mean; cap = float_field "delay" cap }
  | _ -> pfail "delay: bad model %S" v

let cs_of_string v =
  match String.split_on_char ':' v with
  | [ "fixed"; d ] -> Runner.Fixed (float_field "cs" d)
  | [ "exp"; mean; cap ] ->
    Runner.Exponential
      { mean = float_field "cs" mean; cap = float_field "cs" cap }
  | _ -> pfail "cs: bad model %S" v

let arrivals_of_string v =
  if v = "-" then []
  else
    List.map
      (fun item ->
        match String.split_on_char '@' item with
        | [ t; i ] -> (float_field "arrivals" t, int_field "arrivals" i)
        | _ -> pfail "arrivals: bad item %S" item)
      (String.split_on_char ';' v)

let faults_of_string v =
  if v = "-" then []
  else
    List.map
      (fun item ->
        match String.split_on_char '@' item with
        | [ t; rest ] -> (
          match String.split_on_char '!' rest with
          | [ i ] -> (float_field "faults" t, int_field "faults" i, None)
          | [ i; r ] ->
            ( float_field "faults" t,
              int_field "faults" i,
              Some (float_field "faults" r) )
          | _ -> pfail "faults: bad item %S" item)
        | _ -> pfail "faults: bad item %S" item)
      (String.split_on_char ';' v)

let of_string line =
  try
    let kvs =
      String.split_on_char ' ' (String.trim line)
      |> List.filter (fun tok -> tok <> "")
      |> List.map (fun tok ->
             match String.index_opt tok '=' with
             | None -> pfail "token %S is not key=value" tok
             | Some i ->
               ( String.sub tok 0 i,
                 String.sub tok (i + 1) (String.length tok - i - 1) ))
    in
    let get name =
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> pfail "missing field %s" name
    in
    let algo =
      let v = get "algo" in
      match Spec.of_name v with
      | Some a -> a
      | None -> pfail "unknown algorithm %S" v
    in
    (* optional, defaulting to the simulator: corpus lines recorded before
       the process runtime existed stay replayable verbatim *)
    let runtime =
      match List.assoc_opt "runtime" kvs with
      | None -> Des
      | Some v -> (
        match runtime_of_name v with
        | Some r -> r
        | None -> pfail "unknown runtime %S" v)
    in
    Ok
      {
        runtime;
        algo;
        p = int_field "p" (get "p");
        seed = int_field "seed" (get "seed");
        delay = delay_of_string (get "delay");
        cs = cs_of_string (get "cs");
        ft = bool_field "ft" (get "ft");
        patience = float_field "patience" (get "patience");
        lifo = bool_field "lifo" (get "lifo");
        serial = bool_field "serial" (get "serial");
        arrivals = arrivals_of_string (get "arrivals");
        faults = faults_of_string (get "faults");
      }
  with Parse m -> Error m

let validate s =
  let n = nodes s in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let pos_finite name f =
    if Float.is_finite f && f >= 0.0 then Ok () else err "%s: bad time" name
  in
  if s.p < 1 || s.p > 10 then err "p must be in 1..10"
  else if s.runtime = Proc && s.p > 4 then
    err "proc runtime: p must be in 1..4 (each node is a real process)"
  else if
    s.runtime = Proc
    && List.exists (fun (_, _, r) -> r <> None) s.faults
  then err "proc runtime: faults cannot recover (SIGKILL is forever)"
  else if
    s.runtime = Proc && s.faults <> []
    && not (Spec.fault_tolerant s.algo && s.ft)
  then err "proc runtime: kill schedules need the fault-tolerant open cube"
  else if s.patience <= 0.0 then err "patience must be positive"
  else if
    List.exists (fun (_, i) -> i < 0 || i >= n) s.arrivals
    || List.exists (fun (_, i, _) -> i < 0 || i >= n) s.faults
  then err "node id out of range for p=%d" s.p
  else
    let check_times =
      List.fold_left
        (fun acc (t, _) ->
          match acc with Ok () -> pos_finite "arrival" t | e -> e)
        (Ok ()) s.arrivals
    in
    match check_times with
    | Error _ as e -> e
    | Ok () ->
      List.fold_left
        (fun acc (t, _, r) ->
          match acc with
          | Ok () -> (
            match pos_finite "fault" t with
            | Ok () -> (
              match r with
              | None -> Ok ()
              | Some d ->
                if Float.is_finite d && d > 0.0 then Ok ()
                else err "recover_after must be positive")
            | e -> e)
          | e -> e)
        (Ok ()) s.faults
