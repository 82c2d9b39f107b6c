open Ocube_mutex
module Runner = Ocube_mutex.Runner
module Types = Ocube_mutex.Types
module Faults = Ocube_workload.Faults
module Summary = Ocube_stats.Summary
module Opencube = Ocube_topology.Opencube
module Pool = Ocube_par.Pool
module Pspec = Ocube_proc.Spec

type digest = {
  entries : int;
  issued : int;
  messages : int;
  delivered : int;
  dropped : int;
  abandoned : int;
  outstanding : int;
  end_time : float;
  wait_count : int;
  wait_mean : float;
  wait_max : float;
}

let pp_digest ppf d =
  Format.fprintf ppf
    "entries=%d issued=%d messages=%d delivered=%d dropped=%d abandoned=%d \
     outstanding=%d end_time=%.17g wait=(n=%d mean=%.17g max=%.17g)"
    d.entries d.issued d.messages d.delivered d.dropped d.abandoned
    d.outstanding d.end_time d.wait_count d.wait_mean d.wait_max

let equal_digest a b =
  a.entries = b.entries && a.issued = b.issued && a.messages = b.messages
  && a.delivered = b.delivered && a.dropped = b.dropped
  && a.abandoned = b.abandoned && a.outstanding = b.outstanding
  && Int64.equal (Int64.bits_of_float a.end_time) (Int64.bits_of_float b.end_time)
  && a.wait_count = b.wait_count
  && Int64.equal (Int64.bits_of_float a.wait_mean) (Int64.bits_of_float b.wait_mean)
  && Int64.equal (Int64.bits_of_float a.wait_max) (Int64.bits_of_float b.wait_max)

type built = {
  env : Runner.env;
  inst : Types.instance;
  structure : (unit -> (unit, string) result) option;
}

(* Open-cube shape (Theorem 2.1 via the sound-and-complete recursive check)
   plus the branch bound r <= pmax - n1 of Prop. 2.3, node by node, on the
   instance's current father array. *)
let opencube_structure (inst : Types.instance) () =
  match inst.snapshot_tree () with
  | None -> Error "open cube: the instance has no father array"
  | Some fathers -> (
    let cube = Opencube.of_fathers fathers in
    match Opencube.check cube with
    | Error _ as e -> e
    | Ok () ->
      let pmax = Opencube.pmax cube in
      let n = Opencube.order cube in
      let rec loop i =
        if i = n then Ok ()
        else
          let r, n1 = Opencube.branch_stats cube i in
          if r > pmax - n1 then
            Error
              (Printf.sprintf
                 "branch bound violated at node %d: r=%d > pmax-n1=%d" i r
                 (pmax - n1))
          else loop (i + 1)
      in
      loop 0)

module Sim_build = Pspec.Build (Runtime.Sim)

let build (s : Scenario.t) =
  let env =
    Runner.make_env ~seed:s.seed ~n:(Scenario.nodes s) ~delay:s.delay ~cs:s.cs ()
  in
  let inst =
    Sim_build.build s.algo ~params:(Scenario.params s) ~net:(Runner.net env)
      ~callbacks:(Runner.callbacks env)
  in
  let structure =
    match s.algo with
    | Scenario.Opencube -> Some (opencube_structure inst)
    | _ -> None
  in
  Runner.attach env inst;
  { env; inst; structure }

(* Per-request message budgets, failure-free runs only. Serial open-cube
   runs get the paper's Section 4 bound (log2 N + 2 per request, the +2
   corner being DESIGN.md §5bis); concurrent runs get generous multiples
   that still catch forwarding storms and livelocks. *)
let spec_of (s : Scenario.t) structure =
  let fault_free = s.faults = [] in
  let a = List.length s.arrivals in
  let n = Scenario.nodes s in
  let p = s.p in
  let message_bound =
    if not fault_free then None
    else
      match s.algo with
      | Scenario.Central -> Some (3 * a)
      | Scenario.Ricart_agrawala -> Some (2 * (n - 1) * a)
      | Scenario.Suzuki_kasami -> Some (n * a)
      | Scenario.Raymond -> Some (((4 * p) + 2) * a)
      | Scenario.Naimi_trehel -> Some (((2 * n) + 2) * a)
      | Scenario.Opencube ->
        if s.ft then None (* ill-founded suspicions send extra probes *)
        else if s.serial then Some ((p + 2) * a)
        else Some ((4 * (p + 2) * a) + 32)
  in
  (* The open-cube shape theorem (Thm 2.1/4) covers the Section 3 protocol
     only: with the fault machinery armed, ill-founded suspicions can run
     search_father, which rewires fathers outside b-transformations and
     legitimately leaves a non-open-cube (safe) tree at quiescence. *)
  let structure = if fault_free && not s.ft then structure else None in
  { Oracle.fault_free; structure; message_bound; expect_drain = true }

let digest env =
  let w = Runner.wait_stats env in
  {
    entries = Runner.cs_entries env;
    issued = Runner.issued env;
    messages = Runner.messages_sent env;
    delivered = Types.Net.delivered_total (Runner.net env);
    dropped = Types.Net.dropped_total (Runner.net env);
    abandoned = Runner.abandoned env;
    outstanding = Runner.outstanding env;
    end_time = Runner.now env;
    wait_count = Summary.count w;
    wait_mean = Summary.mean w;
    wait_max = Summary.max_value w;
  }

let max_steps = 100_000_000

(* --- process-runtime dispatch -------------------------------------------- *)

module Cluster = Ocube_proc.Cluster

(* Wall seconds per simulated unit for process replays: small enough that
   a scenario runs in about a second, large enough that a CS still spans
   many scheduler quanta. *)
let proc_tick = 0.005

let proc_config (s : Scenario.t) =
  let n = Scenario.nodes s in
  let wishes = List.length s.arrivals in
  (* The cluster drives wishes itself (real processes have no global
     arrival clock), so only the workload's size and shape carry over:
     serial scenarios become lockstep rounds, concurrent ones a closed
     loop of the same total volume. *)
  let per_node = (wishes + n - 1) / n in
  let workload =
    if s.serial then Cluster.Lockstep { rounds = per_node }
    else Cluster.Closed_loop { per_node }
  in
  let cs =
    match s.cs with
    | Runner.Fixed d -> d
    | Runner.Exponential { mean; _ } -> mean
  in
  {
    Cluster.algo = s.algo;
    params = Scenario.params s;
    tick = proc_tick;
    delta = 1.0;
    cs;
    workload;
    kills =
      List.map
        (fun (at, node, _) ->
          Cluster.Kill_at { after = at *. proc_tick; node })
        s.faults;
    deadline = 20.0;
    metrics = false;
  }

let proc_digest (o : Cluster.outcome) =
  let count f = List.length (List.filter (fun (_, ev) -> f ev) o.Cluster.events) in
  let sends = count (function Cluster.Ev_send _ -> true | _ -> false) in
  let drops = count (function Cluster.Ev_drop _ -> true | _ -> false) in
  {
    entries = o.Cluster.entries;
    issued = o.Cluster.wishes;
    messages = sends;
    delivered = sends - drops;
    dropped = drops;
    abandoned = o.Cluster.abandoned;
    outstanding = o.Cluster.wishes - o.Cluster.served - o.Cluster.abandoned;
    (* wall-clock times are not reproducible; keep them out of the digest *)
    end_time = 0.0;
    wait_count = 0;
    wait_mean = 0.0;
    wait_max = 0.0;
  }

let run_proc s =
  let o = Cluster.run (proc_config s) in
  match Cluster.oracle_clean o with
  | Error e -> Error e
  | Ok () -> Ok (proc_digest o)

let run_des ~build s =
    let { env; inst; structure } = build s in
    let spec = spec_of s structure in
    Oracle.install ~env ~inst spec;
    let result =
      try
        Runner.run_arrivals env s.arrivals;
        Runner.schedule_faults env
          (List.map
             (fun (at, node, recover_after) -> { Faults.at; node; recover_after })
             s.faults);
        Runner.run_to_quiescence ~max_steps env;
        Oracle.final ~env ~inst spec;
        Ok (digest env)
      with
      | Oracle.Violation m -> Error m
      | Failure m -> Error ("liveness: no quiescence - " ^ m)
    in
    Oracle.uninstall ~env;
    result

let run ?(build = build) s =
  match Scenario.validate s with
  | Error m -> Error ("invalid scenario: " ^ m)
  | Ok () -> (
    match s.Scenario.runtime with
    | Scenario.Des -> run_des ~build s
    | Scenario.Proc -> run_proc s)

let shrink ?build ?(max_runs = 500) s0 =
  let runs = ref 0 in
  let fails s =
    if !runs >= max_runs then false
    else begin
      incr runs;
      match run ?build s with Error _ -> true | Ok _ -> false
    end
  in
  let rec go s =
    match List.find_opt fails (Scenario.shrink_candidates s) with
    | Some smaller -> go smaller
    | None -> s
  in
  go s0

type failure = {
  index : int;
  scenario : Scenario.t;
  error : string;
  shrunk : Scenario.t;
  shrunk_error : string;
}

type report = { ran : int; checksum : int; failure : failure option }

(* Order-sensitive digest mix (same spirit as boost::hash_combine): the
   checksum pins down every digest of the stream prefix in index order,
   so a parallel campaign that produced even one different digest cannot
   collide back to the serial checksum by accident. *)
let mix acc (d : digest) =
  (* Structural hash of a flat int/float record is deterministic, and the
     resulting checksum values are pinned by recorded reproducers. *)
  let h = (Hashtbl.hash [@ocube.lint.allow "no-poly-compare"]) d in
  acc lxor (h + 0x9e3779b9 + (acc lsl 6) + (acc lsr 2))

let found ~builder ~index ~scenario ~error ~checksum =
  let shrunk = shrink ?build:builder scenario in
  let shrunk_error =
    match run ?build:builder shrunk with Error e -> e | Ok _ -> error
  in
  {
    ran = index + 1;
    checksum;
    failure = Some { index; scenario; error; shrunk; shrunk_error };
  }

let campaign_serial ?build:builder ~opts ~iters ~stop ~on_progress ~fuzz_seed () =
  let rec loop i cks =
    if i >= iters || stop () then { ran = i; checksum = cks; failure = None }
    else
      let s = Scenario.of_index ~fuzz_seed ~index:i ~opts in
      match run ?build:builder s with
      | Ok d ->
        on_progress (i + 1);
        loop (i + 1) (mix cks d)
      | Error error ->
        found ~builder ~index:i ~scenario:s ~error ~checksum:cks
  in
  loop 0 0

(* Parallel campaign: scenario indices are striped across the pool one
   chunk at a time. Scenarios are deterministic in [(fuzz_seed, index)]
   and every run uses its own environment, so the workers share nothing;
   the chunk's results are then scanned serially in index order, which
   makes the checksum — and the failing index, always the smallest one —
   bit-identical to the serial campaign. Shrinking stays serial. *)
let campaign_parallel ?build:builder ~opts ~iters ~stop ~on_progress ~fuzz_seed
    ~jobs () =
  Pool.with_pool ~jobs (fun pool ->
      let chunk = 4 * Pool.jobs pool in
      let rec loop start cks =
        if start >= iters || stop () then
          { ran = start; checksum = cks; failure = None }
        else begin
          let n = min chunk (iters - start) in
          let results =
            Pool.map_array pool ~n (fun k ->
                let s = Scenario.of_index ~fuzz_seed ~index:(start + k) ~opts in
                (s, run ?build:builder s))
          in
          let rec scan k cks =
            if k = n then begin
              on_progress (start + n);
              loop (start + n) cks
            end
            else
              match results.(k) with
              | _, Ok d -> scan (k + 1) (mix cks d)
              | s, Error error ->
                found ~builder ~index:(start + k) ~scenario:s ~error
                  ~checksum:cks
          in
          scan 0 cks
        end
      in
      loop 0 0)

let campaign ?build:builder ?(opts = Scenario.default_opts) ?(iters = max_int)
    ?(stop = fun () -> false) ?(on_progress = fun _ -> ()) ?(jobs = 1)
    ~fuzz_seed () =
  if jobs <= 1 then
    campaign_serial ?build:builder ~opts ~iters ~stop ~on_progress ~fuzz_seed ()
  else
    campaign_parallel ?build:builder ~opts ~iters ~stop ~on_progress ~fuzz_seed
      ~jobs ()
