(* The fuzz subsystem checked against itself: smoke campaigns over all six
   algorithms, the bit-identical replay guarantee, exact script round-trips,
   regression reproducers for the bugs the fuzzer found (among them the
   stale-mandate livelock, the mid-CS token transit and the
   ill-founded-suspicion livelock), a deliberately sabotaged
   algorithm that the oracle must catch and the shrinker must reduce to a
   two-arrival counterexample, a forged second token the oracle must
   name, and the cores' running tallies checked against O(N) scans. *)

module Scenario = Ocube_check.Scenario
module Fuzz = Ocube_check.Fuzz
module Runner = Ocube_mutex.Runner
module Types = Ocube_mutex.Types
module Network = Ocube_net.Network
module Engine = Ocube_sim.Engine
module Static_tree = Ocube_topology.Static_tree
open Ocube_mutex

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- smoke campaigns ------------------------------------------------------ *)

let test_smoke_all_algos () =
  let report = Fuzz.campaign ~iters:200 ~fuzz_seed:2718 () in
  checki "all scenarios ran" 200 report.Fuzz.ran;
  (match report.Fuzz.failure with
  | None -> ()
  | Some f ->
    Alcotest.failf "scenario %d violated %S: %s" f.Fuzz.index f.Fuzz.error
      (Scenario.to_string f.Fuzz.scenario))

let test_smoke_opencube_faults () =
  let opts =
    { Scenario.default_opts with Scenario.algos = [ Scenario.Opencube ] }
  in
  let report = Fuzz.campaign ~opts ~iters:150 ~fuzz_seed:424242 () in
  checki "all scenarios ran" 150 report.Fuzz.ran;
  checkb "no violation" true (report.Fuzz.failure = None)

(* The implicit (Bigarray) topology across every fault scenario the
   generator produces: the closed-form son reconstruction must survive
   the full adversarial space, not just legal b-transform histories. *)
let test_smoke_implicit_faults () =
  let opts =
    { Scenario.default_opts with Scenario.algos = [ Scenario.Opencube ] }
  in
  let report = Fuzz.campaign ~opts ~iters:300 ~fuzz_seed:5150 () in
  checki "all scenarios ran" 300 report.Fuzz.ran;
  (match report.Fuzz.failure with
  | None -> ()
  | Some f ->
    Alcotest.failf "scenario %d violated %S: %s" f.Fuzz.index f.Fuzz.error
      (Scenario.to_string f.Fuzz.scenario))

(* Pinned open-cube digest checksum. The oracle's structural checks route
   through Opencube.of_fathers/check, so a change in the topology's son
   reconstruction would change a digest. The value was recorded when the
   explicit and implicit cubes were both runtime modes and agreed on it,
   and re-pinned when the wait-for probe replaced the custody cap (5 of
   the 120 digests moved) and when backlog leases priced the custody
   queries (20 moved), each time only open-cube runs with the fault
   machinery armed. *)
let test_campaign_checksum_pinned () =
  let opts =
    { Scenario.default_opts with Scenario.algos = [ Scenario.Opencube ] }
  in
  let r = Fuzz.campaign ~opts ~iters:120 ~fuzz_seed:8086 () in
  checkb "no violation" true (r.Fuzz.failure = None);
  checki "all scenarios ran" 120 r.Fuzz.ran;
  checki "pinned digest checksum" (-3533833588341573004) r.Fuzz.checksum

(* --- determinism ---------------------------------------------------------- *)

let test_replay_bit_identical () =
  List.iter
    (fun index ->
      let s =
        Scenario.of_index ~fuzz_seed:7 ~index ~opts:Scenario.default_opts
      in
      match (Fuzz.run s, Fuzz.run s) with
      | Ok a, Ok b ->
        checkb
          (Printf.sprintf "digests equal for index %d" index)
          true (Fuzz.equal_digest a b)
      | Error e, _ | _, Error e ->
        Alcotest.failf "index %d unexpectedly failed: %s" index e)
    [ 0; 3; 11; 42; 97 ]

(* The campaign's --jobs contract: same checksum (an in-order hash of
   every digest), same scenario count, no failure — at any pool width. *)
let test_parallel_campaign_checksum () =
  let run jobs = Fuzz.campaign ~iters:120 ~jobs ~fuzz_seed:1618 () in
  let serial = run 1 and parallel = run 4 in
  checkb "no serial failure" true (serial.Fuzz.failure = None);
  checkb "no parallel failure" true (parallel.Fuzz.failure = None);
  checki "same count" serial.Fuzz.ran parallel.Fuzz.ran;
  checki "same digest checksum" serial.Fuzz.checksum parallel.Fuzz.checksum

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:60 ~name:"scenario scripts round-trip exactly"
      (int_range 0 5000)
      (fun index ->
        let s =
          Scenario.of_index ~fuzz_seed:99 ~index ~opts:Scenario.default_opts
        in
        let line = Scenario.to_string s in
        match Scenario.of_string line with
        | Error e -> Test.fail_reportf "unparseable script %S: %s" line e
        | Ok s' -> String.equal line (Scenario.to_string s'));
  ]

(* --- regression reproducers ----------------------------------------------- *)

(* Found by the fuzzer: a proxy kept a mandate for an already-served
   request forever because the source silently dropped the stale
   re-request; the [Void] reply now cancels the mandate. *)
let livelock_script =
  "algo=opencube p=4 seed=0 delay=constant:1.6043898352785748 \
   cs=fixed:3.1974163220161023 ft=true patience=1 lifo=false serial=false \
   arrivals=1.8719119439257237@13;1.8719119439257237@8;13.002734697930689@10;13.002734697930689@3;13.002734697930689@12;13.002734697930689@11;13.002734697930689@1;13.002734697930689@8;13.002734697930689@9;13.002734697930689@0;13.002734697930689@6 \
   faults=-"

(* Found by the fuzzer: a search restarted by a census backoff while the
   node was already in its CS let a stale test answer conclude a recovery
   search, whose drain transited the token away in mid-CS; [start_search]
   now refuses to run on a token holder. *)
let mid_cs_transit_script =
  "algo=opencube p=5 seed=0 delay=constant:0.55731703767496654 \
   cs=fixed:2.1362265765109183 ft=true patience=1 lifo=false serial=false \
   arrivals=1.3506721652244842@10;1.3506721652244842@2;1.3506721652244842@4;1.3506721652244842@7;1.3506721652244842@22;1.3506721652244842@0;1.3506721652244842@24;1.3506721652244842@29;1.3506721652244842@18;1.3506721652244842@27;1.3506721652244842@1;10.686878409058625@0;10.686878409058625@16;10.686878409058625@25;10.686878409058625@29;10.686878409058625@31;10.686878409058625@2;10.686878409058625@30;10.686878409058625@27;10.686878409058625@23;10.686878409058625@4;10.686878409058625@19;10.686878409058625@7;10.686878409058625@20;10.686878409058625@18;10.686878409058625@21;10.686878409058625@1;10.686878409058625@8;10.686878409058625@10;10.686878409058625@9;10.686878409058625@6;10.686878409058625@24 \
   faults=-"

(* Found by the fuzzer: a loan return that arrived while the lender had
   a mandate of its own pending was integrated as the mandate's grant,
   leaving the loan record and its enquiry timer dangling; the timer
   fired after the token was re-lent and regenerated a duplicate.
   Every accepted token now settles an outstanding loan, whatever the
   mandate. *)
let stale_enquiry_regen_script =
  "algo=opencube p=3 seed=213444 \
   delay=uniform:0.95730522126217266:1.2285784236444162 \
   cs=fixed:1.2208350946998003 ft=true patience=1 lifo=false serial=false \
   arrivals=3.6549516302199589@4;7.0873295155409277@1;8.8552590737385444@5;9.3028622726272676@3;12.51920426656153@7;13.568866260390523@3;14.388256010652629@1;16.600407957158509@3;17.579647947269141@0;18.80897091912232@3;23.177203782896012@2;26.541199289906064@7;28.531665143572937@2;32.932476655535595@6;38.545981222140313@2;39.627170251203438@7 \
   faults=15.090661078045462@4;44.619909617340561@6"

(* Found by the fuzzer: the recovery anomaly bounce could ping-pong
   forever against the holder-accepts-any-searcher rule; the bounce now
   defers to a token holder, which serves instead. (The script was found
   together with the lender-regeneration dispatch below, but no longer
   reaches that dispatch; it is the one test that fails when the bounce
   ignores the token.) *)
let census_after_regen_script =
  "algo=opencube p=2 seed=679809 delay=constant:0.64293572514457797 \
   cs=fixed:1.9820889235139105 ft=true patience=1 lifo=false serial=false \
   arrivals=0.7679406868019728@3;5.0063630193722002@2;6.7945398005843929@0;8.3557305953650491@1;8.8813774408142319@2;11.472967407237723@0;13.069744078395095@3;13.275153969679153@1;16.981889175402802@0;26.931318074736026@3;27.167226255080735@1;28.386777938909027@2;28.653256024547531@2;30.212427315732821@3;31.658410277255669@0;34.047608879624981@1;36.874863861150885@3;37.027354949820058@0;40.724154868727588@0;40.878855517307692@0;41.137971021641@2;42.10671638518069@0;44.927325815913299@0;45.953816507652277@1;50.538843665752381@2;54.996970594552586@1;56.772477569833924@3;56.992765378419556@3;57.560218964468213@0;57.709622771081605@0;62.077995538508318@0;65.135275650311442@2;72.857688632928529@0 \
   faults=49.976386008051961@3;55.332624118841402@1!10.348693095274172;58.480672960175056@3"

(* Found by the fuzzer (seed 1, 40,000 scenarios): 37 wishes on 32 nodes
   with one fault ran past the 100M-event budget. Ill-founded suspicions
   fed it: the same scenario completed at patience 1.25 and 1.5, where
   the askers' 2·pmax·δ deadline outlasts ordinary queueing. The custody
   query (an asker asks its father before suspecting it) removes those
   suspicions; the replay now ends within a thousand messages. *)
let suspicion_livelock_script =
  "runtime=des algo=opencube p=5 seed=0 delay=constant:0.56009598419429718 \
   cs=fixed:0.68639722315361529 ft=true patience=1 lifo=false serial=false \
   arrivals=1.3651546055547807@12;1.3651546055547807@7;1.3651546055547807@8;1.3651546055547807@1;1.3651546055547807@11;1.3651546055547807@21;1.3651546055547807@29;1.3651546055547807@0;1.3651546055547807@26;1.3651546055547807@6;8.5246707218905797@0;8.5246707218905797@19;8.5246707218905797@10;8.5246707218905797@5;8.5246707218905797@4;8.5246707218905797@15;8.5246707218905797@13;8.5246707218905797@20;8.5246707218905797@31;8.5246707218905797@3;8.5246707218905797@6;8.5246707218905797@2;8.5246707218905797@25;8.5246707218905797@16;8.5246707218905797@30;8.5246707218905797@26;8.5246707218905797@9;8.5246707218905797@18;8.5246707218905797@12;8.5246707218905797@22;8.5246707218905797@14;8.5246707218905797@7;8.5246707218905797@8;8.5246707218905797@28;8.5246707218905797@11;8.5246707218905797@21;8.5246707218905797@17 \
   faults=56.646428424289681@5"

(* Found by the fuzzer (seed 11, --max-p 4, against a build whose
   [regenerate_token] only drains): a lender regenerates the token lost
   with its borrower while its own mandate is pending. Draining instead
   of serving the mandate leaves the lender asking with the token in hand;
   a later request is then granted on that stale mandate and two nodes
   enter their CS. [regenerate_token] serves the mandate through the
   token-in-hand dispatch (PROTOCOL.md §4). *)
let lender_regen_mandate_script =
  "runtime=des algo=opencube p=2 seed=546465 \
   delay=exponential:0.98038503354717688:2.3825789681047311 \
   cs=fixed:3.1463642811692858 ft=true patience=1 lifo=false serial=false \
   arrivals=4.4282323051152757@1;12.441558796167687@1;17.228332060502908@1;28.031216490370149@1;28.809341085586006@2;31.457157102629594@3;65.255798345674151@2;68.327441270366421@3;68.493541736821555@3;73.942912274494745@3;82.700421585465989@1 \
   faults=14.965361021423295@0!36.270295909458234;40.073344433978555@3!26.708234857979033"

(* Found by the fuzzer (seed 1, scenario 37,857): after node 14's crash
   and recovery, searches rewire fathers into a waiting cycle whose
   members answer each other's custody queries "held" forever. A cap on
   held answers used to break it; now a wait-for probe walk comes back to
   its initiator and proves the cycle. Without either the run never
   quiesces. *)
let waiting_cycle_script =
  "runtime=des algo=opencube p=4 seed=200152 \
   delay=exponential:0.93370381429599081:3.0283658339731341 cs=fixed:2.0367861102606568 ft=true patience=1 lifo=false serial=false \
   arrivals=0.49528028150116304@14;1.0493995914787366@14;2.7747076110081972@13;3.194149057368679@12;3.2215388804318881@13;3.364040723027915@10;3.9246850972420897@2;4.1376108078817317@1;4.8408430437434591@7;5.9854697783795192@4;8.1512412172976223@9;9.1766359719384152@0;9.4125357240229608@14;9.628389826769471@12;10.396533883300336@1;11.362030624420518@2;12.196299986814099@3;12.715022447997196@2;12.995445501922614@11;13.700673228730288@1;13.850708286224762@9;13.974143731421572@5;14.331335117132403@13;17.534616376923385@11;17.703024216701639@9;18.768055333694591@1;19.558010134384883@11;19.900274025922652@3;20.858519922513231@2;22.058742507952925@13;22.468302302472392@14;23.341261835794327@13;24.004466306165938@15;24.768991797030523@1;29.20734926243852@1;30.162308496596332@7;30.334807161192042@7;32.240985956669306@11;33.365627576443046@7;33.518809993173548@10 \
   faults=10.579186277143231@14!11.780748421808592"

let replay_ok name script =
  match Scenario.of_string script with
  | Error e -> Alcotest.failf "%s: bad script: %s" name e
  | Ok s -> (
    match Fuzz.run s with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" name e)

let test_regression_livelock () = replay_ok "stale-mandate livelock" livelock_script
let test_regression_mid_cs () = replay_ok "mid-CS transit" mid_cs_transit_script

let test_regression_stale_enquiry () =
  replay_ok "stale-enquiry regeneration" stale_enquiry_regen_script

let test_regression_census_after_regen () =
  replay_ok "census after lender regeneration" census_after_regen_script

let test_regression_lender_regen_mandate () =
  replay_ok "lender regeneration serves its mandate" lender_regen_mandate_script

let test_regression_waiting_cycle () =
  replay_ok "waiting cycle" waiting_cycle_script

let test_regression_suspicion_livelock () =
  match Scenario.of_string suspicion_livelock_script with
  | Error e -> Alcotest.failf "bad script: %s" e
  | Ok s -> (
    match Fuzz.run s with
    | Error e -> Alcotest.failf "suspicion livelock: %s" e
    | Ok d ->
      checki "every surviving wish served" 0 d.Fuzz.outstanding;
      checkb "no message storm" true (d.Fuzz.messages < 2_000))

(* --- tallies against the scans they replaced ------------------------------ *)

(* Every core's [invariant_check] reads token and in-CS tallies kept at
   the flag setters. This build constructs the cores [Fuzz.build] does,
   through their concrete modules (the open cube with
   [Spec.opencube_config]), and, on fault-free scenarios, adds a second
   step hook beside the oracle's that recounts both with O(N) scans after
   every event. *)
type tally_log = {
  mutable mismatches : string list;
  mutable events : (string * int) list;  (* checked events per algorithm *)
}

let count n flag =
  let c = ref 0 in
  for i = 0 to n - 1 do
    if flag i then incr c
  done;
  !c

let tally_build log (s : Scenario.t) =
  let n = Scenario.nodes s in
  let env = Runner.make_env ~seed:s.seed ~n ~delay:s.delay ~cs:s.cs () in
  let net = Runner.net env and callbacks = Runner.callbacks env in
  (* (tallied holders, scanned holders, tallied in-CS, scanned in-CS) *)
  let inst, counts =
    match s.algo with
    | Scenario.Opencube ->
      let config = Scenario.Spec.opencube_config (Scenario.params s) in
      let a = Opencube_algo.create ~net ~callbacks ~config in
      ( Opencube_algo.instance a,
        fun () ->
          ( Opencube_algo.holder_count a,
            List.length (Opencube_algo.token_holders a),
            Opencube_algo.in_cs_count a,
            count n (Opencube_algo.in_cs a) ) )
    | Scenario.Raymond ->
      let tree = Static_tree.build Static_tree.Binomial ~n in
      let a = Raymond.create ~net ~callbacks ~tree () in
      ( Raymond.instance a,
        fun () ->
          ( Raymond.holder_count a,
            count n (fun i -> Raymond.holder a i = i),
            Raymond.in_cs_count a,
            count n (Raymond.in_cs a) ) )
    | Scenario.Naimi_trehel ->
      let a = Naimi_trehel.create ~net ~callbacks ~n () in
      ( Naimi_trehel.instance a,
        fun () ->
          ( Naimi_trehel.holder_count a,
            List.length (Naimi_trehel.token_holders a),
            Naimi_trehel.in_cs_count a,
            count n (Naimi_trehel.in_cs a) ) )
    | Scenario.Central ->
      let a = Central.create ~net ~callbacks ~n () in
      ( Central.instance a,
        fun () -> (0, 0, Central.in_cs_count a, count n (Central.in_cs a)) )
    | Scenario.Suzuki_kasami ->
      let a = Suzuki_kasami.create ~net ~callbacks ~n () in
      ( Suzuki_kasami.instance a,
        fun () ->
          ( Suzuki_kasami.holder_count a,
            List.length (Suzuki_kasami.token_holders a),
            Suzuki_kasami.in_cs_count a,
            count n (Suzuki_kasami.in_cs a) ) )
    | Scenario.Ricart_agrawala ->
      let a = Ricart_agrawala.create ~net ~callbacks ~n () in
      ( Ricart_agrawala.instance a,
        fun () ->
          ( 0,
            0,
            Ricart_agrawala.in_cs_count a,
            count n (Ricart_agrawala.in_cs a) ) )
  in
  Runner.attach env inst;
  (if s.faults = [] then
     let name = inst.Types.algo_name in
     ignore
       (Engine.add_step_hook (Runner.engine env) (fun () ->
            let held, held_scan, in_cs, in_cs_scan = counts () in
            if held <> held_scan || in_cs <> in_cs_scan then
              log.mismatches <-
                Printf.sprintf "%s at t=%g: holders %d vs scan %d, in-CS %d vs scan %d"
                  name (Runner.now env) held held_scan in_cs in_cs_scan
                :: log.mismatches;
            let k = try List.assoc name log.events with Not_found -> 0 in
            log.events <- (name, k + 1) :: List.remove_assoc name log.events)));
  { Fuzz.env; inst; structure = None }

let test_tallies_match_scans () =
  let log = { mismatches = []; events = [] } in
  let report =
    Fuzz.campaign ~build:(tally_build log) ~iters:400 ~fuzz_seed:4242 ()
  in
  (* Mismatches first: a broken tally usually trips the oracle as well,
     and the mismatch is the more telling message. *)
  (match List.rev log.mismatches with
  | [] -> ()
  | first :: _ as ms ->
    Alcotest.failf "%d tally mismatches, first: %s" (List.length ms) first);
  (match report.Fuzz.failure with
  | None -> ()
  | Some f ->
    Alcotest.failf "scenario %d violated %S: %s" f.Fuzz.index f.Fuzz.error
      (Scenario.to_string f.Fuzz.scenario));
  List.iter
    (fun name ->
      checkb
        (Printf.sprintf "%s checked at some event" name)
        true
        (try List.assoc name log.events > 0 with Not_found -> false))
    [
      "opencube"; "raymond"; "naimi-trehel"; "central"; "suzuki-kasami";
      "ricart-agrawala";
    ]

(* --- injected bug: caught and shrunk -------------------------------------- *)

(* An "algorithm" that grants every wish instantly, never serialising
   anything: the canonical safety bug. The runner's ground-truth CS
   accounting must flag it and the shrinker must cut the scenario down to
   the minimum that still overlaps two critical sections. *)
let always_grant_build (s : Scenario.t) =
  let n = Scenario.nodes s in
  let env =
    Runner.make_env ~seed:s.Scenario.seed ~n ~delay:s.Scenario.delay
      ~cs:s.Scenario.cs ()
  in
  let callbacks = Runner.callbacks env in
  let inst =
    {
      Types.algo_name = "always-grant";
      request_cs = (fun i -> callbacks.Types.on_enter i);
      release_cs = (fun i -> callbacks.Types.on_exit i);
      on_recovered = (fun _ -> ());
      snapshot_tree = (fun () -> None);
      token_holders = (fun () -> []);
      invariant_check = (fun () -> Ok ());
      repair_bound = 0.0;
    }
  in
  Runner.attach env inst;
  { Fuzz.env; inst; structure = None }

let overlapping_scenario =
  {
    Scenario.runtime = Scenario.Des;
    algo = Scenario.Central;
    p = 3;
    seed = 5;
    delay = Network.Constant 1.0;
    cs = Runner.Fixed 10.0;
    ft = false;
    patience = 1.0;
    lifo = false;
    serial = false;
    arrivals = List.init 8 (fun i -> (1.0 +. (0.5 *. float_of_int i), i));
    faults = [];
  }

(* The forged livelock of [Tutil.stalling_instance] behind a fuzz
   scenario: the runner's watchdog ends each run, [Fuzz.run] must report
   its verdict, and the shrinker must cut the scenario down to one wish. *)
let stalling_build (s : Scenario.t) =
  let env =
    Runner.make_env ~seed:s.Scenario.seed ~n:(Scenario.nodes s)
      ~delay:s.Scenario.delay ~cs:s.Scenario.cs ()
  in
  let inst = Tutil.stalling_instance env in
  Runner.attach env inst;
  { Fuzz.env; inst; structure = None }

let test_watchdog_reports_livelock () =
  let stalls s =
    match Fuzz.run ~build:stalling_build s with
    | Ok _ -> Alcotest.fail "a run that never grants passed"
    | Error e ->
      checkb ("liveness error: " ^ e) true
        (String.starts_with ~prefix:"liveness: no CS entry" e)
  in
  stalls overlapping_scenario;
  let shrunk = Fuzz.shrink ~build:stalling_build overlapping_scenario in
  checki "shrunk to one wish" 1 (List.length shrunk.Scenario.arrivals);
  stalls shrunk

let test_injected_bug_caught_and_shrunk () =
  (* Sanity: the scenario itself is fine under the real algorithm. *)
  (match Fuzz.run overlapping_scenario with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "real central failed the scenario: %s" e);
  (* The sabotaged build must be caught... *)
  let error =
    match Fuzz.run ~build:always_grant_build overlapping_scenario with
    | Ok _ -> Alcotest.fail "oracle missed the always-grant bug"
    | Error e -> e
  in
  let has_mutex_violation e =
    let sub = "mutual exclusion" in
    let ls = String.length sub and le = String.length e in
    let rec go i = i + ls <= le && (String.sub e i ls = sub || go (i + 1)) in
    go 0
  in
  checkb "error names mutual exclusion" true (has_mutex_violation error);
  (* ... and shrunk to the two arrivals that overlap. *)
  let shrunk = Fuzz.shrink ~build:always_grant_build overlapping_scenario in
  checki "shrunk to two arrivals" 2 (List.length shrunk.Scenario.arrivals);
  checki "faults stay empty" 0 (List.length shrunk.Scenario.faults);
  (match Fuzz.run ~build:always_grant_build shrunk with
  | Ok _ -> Alcotest.fail "shrunk scenario no longer fails"
  | Error e -> checkb "shrunk error is the same bug" true (has_mutex_violation e));
  (* The printed reproducer replays: script -> scenario -> same failure. *)
  match Scenario.of_string (Scenario.to_string shrunk) with
  | Error e -> Alcotest.failf "shrunk script unparseable: %s" e
  | Ok s -> (
    match Fuzz.run ~build:always_grant_build s with
    | Ok _ -> Alcotest.fail "reparsed reproducer no longer fails"
    | Error _ -> ())

(* A forged second token: a real core receives a token nobody sent, so
   node 3 holds one while root 0 still holds the first. The in-flight
   account drops to -1, so held + in flight still reads 1 and nobody is
   in a CS twice: only the at-most-one-holder part of [invariant_check]
   sees this state, and its message must name both holders. *)
let forged_token_build (s : Scenario.t) =
  let b = Fuzz.build s in
  let net = Runner.net b.Fuzz.env in
  ignore
    (Engine.schedule (Runner.engine b.Fuzz.env) ~delay:0.5 (fun () ->
         Types.Net.send net ~src:1 ~dst:3
           (Types.Message.Token { lender = None; rid = None })));
  b

let test_forged_token_names_both_holders () =
  List.iter
    (fun algo ->
      let s =
        {
          overlapping_scenario with
          Scenario.algo;
          p = 2;
          cs = Runner.Fixed 1.0;
          arrivals = [ (20.0, 2) ];
        }
      in
      (match Fuzz.run s with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "unforged scenario failed: %s" e);
      match Fuzz.run ~build:forged_token_build s with
      | Ok _ -> Alcotest.fail "oracle missed the forged second token"
      | Error e ->
        let names = "token: 2 simultaneous holders (0,3)" in
        let le = String.length e and ln = String.length names in
        let rec has i = i + ln <= le && (String.sub e i ln = names || has (i + 1)) in
        checkb (Printf.sprintf "error %S names both holders" e) true (has 0))
    [ Scenario.Naimi_trehel; Scenario.Raymond ]

(* The open cube's quiescence check reads the instance's father array. A
   real fault-free open-cube run whose [snapshot_tree] reports a star
   (node 0 fathering 1, 2 and 3, which is not a 2-open-cube) must fail
   with the shape error, and the same run unwrapped must pass. *)
let star = [| None; Some 0; Some 0; Some 0 |]

let star_tree_build (s : Scenario.t) =
  let b = Fuzz.build s in
  let inst = { b.Fuzz.inst with Types.snapshot_tree = (fun () -> Some star) } in
  { b with Fuzz.inst; structure = Some (Fuzz.opencube_structure inst) }

let test_structure_reads_instance () =
  let s =
    {
      overlapping_scenario with
      Scenario.algo = Scenario.Opencube;
      p = 2;
      cs = Runner.Fixed 1.0;
      arrivals = [ (1.0, 3); (2.0, 1) ];
    }
  in
  (match Fuzz.run s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unwrapped open cube failed: %s" e);
  let shape =
    match Ocube_topology.Opencube.(check (of_fathers star)) with
    | Ok () -> Alcotest.fail "the star passed the open-cube check"
    | Error m -> m
  in
  match Fuzz.run ~build:star_tree_build s with
  | Ok _ -> Alcotest.fail "oracle missed a father array that is not an open cube"
  | Error e ->
    Alcotest.(check string) "shape error" ("structure at quiescence: " ^ shape) e

(* With a buggy algorithm the parallel campaign must converge on the
   stream's *smallest* failing index — even though later indices in the
   same chunk also fail — and shrink it to the same reproducer. *)
let test_parallel_campaign_min_index_failure () =
  let run jobs =
    Fuzz.campaign ~build:always_grant_build ~iters:200 ~jobs ~fuzz_seed:31 ()
  in
  let serial = run 1 and parallel = run 4 in
  match (serial.Fuzz.failure, parallel.Fuzz.failure) with
  | Some a, Some b ->
    checki "same failing index" a.Fuzz.index b.Fuzz.index;
    checki "same ran count" serial.Fuzz.ran parallel.Fuzz.ran;
    checki "same checksum" serial.Fuzz.checksum parallel.Fuzz.checksum;
    checkb "same scenario" true
      (String.equal
         (Scenario.to_string a.Fuzz.scenario)
         (Scenario.to_string b.Fuzz.scenario));
    checkb "same shrunk reproducer" true
      (String.equal
         (Scenario.to_string a.Fuzz.shrunk)
         (Scenario.to_string b.Fuzz.shrunk))
  | None, None ->
    Alcotest.fail "always-grant survived 200 scenarios - oracle asleep?"
  | Some _, None -> Alcotest.fail "parallel campaign missed the failure"
  | None, Some _ -> Alcotest.fail "serial campaign missed the failure"

let suite =
  [
    Alcotest.test_case "smoke: 200 scenarios, six algorithms" `Quick
      test_smoke_all_algos;
    Alcotest.test_case "smoke: open-cube under faults" `Quick
      test_smoke_opencube_faults;
    Alcotest.test_case "implicit topology: 300 fault scenarios" `Quick
      test_smoke_implicit_faults;
    Alcotest.test_case "open-cube campaign checksum" `Quick
      test_campaign_checksum_pinned;
    Alcotest.test_case "replay is bit-identical" `Quick
      test_replay_bit_identical;
    Alcotest.test_case "parallel campaign checksum = serial" `Quick
      test_parallel_campaign_checksum;
    Alcotest.test_case "parallel campaign finds the min failing index" `Quick
      test_parallel_campaign_min_index_failure;
    Alcotest.test_case "regression: stale-mandate livelock quiesces" `Quick
      test_regression_livelock;
    Alcotest.test_case "regression: no mid-CS token transit" `Quick
      test_regression_mid_cs;
    Alcotest.test_case "regression: no stale-enquiry token regeneration" `Quick
      test_regression_stale_enquiry;
    Alcotest.test_case "regression: census after lender regeneration" `Quick
      test_regression_census_after_regen;
    Alcotest.test_case "regression: ill-founded-suspicion livelock quiesces"
      `Quick test_regression_suspicion_livelock;
    Alcotest.test_case "regression: p=4 waiting cycle quiesces" `Quick
      test_regression_waiting_cycle;
    Alcotest.test_case "progress watchdog reports a livelock" `Quick
      test_watchdog_reports_livelock;
    Alcotest.test_case "injected always-grant bug caught and shrunk" `Quick
      test_injected_bug_caught_and_shrunk;
    Alcotest.test_case "forged second token: error names both holders" `Quick
      test_forged_token_names_both_holders;
    Alcotest.test_case "tallies equal the O(N) scans at every event" `Quick
      test_tallies_match_scans;
    Alcotest.test_case "open-cube shape check reads the instance" `Quick
      test_structure_reads_instance;
    Alcotest.test_case "regression: lender regeneration serves its mandate"
      `Quick test_regression_lender_regen_mandate;
  ]
  @ List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qcheck_tests
