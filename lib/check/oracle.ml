module Runner = Ocube_mutex.Runner
module Types = Ocube_mutex.Types
module Engine = Ocube_sim.Engine

exception Violation of string

let fail fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

type spec = {
  fault_free : bool;
  structure : (unit -> (unit, string) result) option;
  message_bound : int option;
}

(* Runs after every engine event, so both checks are O(1) reads of
   running tallies; the instance scans its nodes only to word an error. *)
let check_step ~env ~inst spec () =
  (* The runner's on_enter callback is the ground truth for mutual
     exclusion: it sees every entry against the live in-CS set. *)
  if Runner.violations env > 0 then
    fail "safety: mutual exclusion violated at t=%.6g" (Runner.now env);
  if spec.fault_free then
    match inst.Types.invariant_check () with
    | Ok () -> ()
    | Error m -> fail "invariant at t=%.6g: %s" (Runner.now env) m

let install ~env ~inst spec =
  Engine.set_step_hook (Runner.engine env) (check_step ~env ~inst spec)

let uninstall ~env = Engine.clear_step_hook (Runner.engine env)

let final ~env ~inst spec =
  if Runner.violations env > 0 then
    fail "safety: %d mutual-exclusion violations" (Runner.violations env);
  if Runner.outstanding env <> 0 then
    fail "liveness: %d request(s) still waiting at quiescence (issued %d, \
          served %d, abandoned %d)"
      (Runner.outstanding env) (Runner.issued env) (Runner.cs_entries env)
      (Runner.abandoned env);
  if spec.fault_free then begin
    (match inst.Types.invariant_check () with
    | Ok () -> ()
    | Error m -> fail "invariant at quiescence: %s" m);
    match spec.structure with
    | None -> ()
    | Some check -> (
      match check () with
      | Ok () -> ()
      | Error m -> fail "structure at quiescence: %s" m)
  end;
  match spec.message_bound with
  | Some bound when Runner.messages_sent env > bound ->
    fail "message bound: %d messages sent, budget %d for %d request(s)"
      (Runner.messages_sent env) bound (Runner.issued env)
  | _ -> ()
