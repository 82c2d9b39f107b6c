(* Tiny shared helpers for the test suites. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else begin
    let found = ref false in
    for i = 0 to nh - nn do
      if (not !found) && String.sub haystack i nn = needle then found := true
    done;
    !found
  end

(* A forged livelock: wishes are never granted, yet events keep coming (a
   perpetual chatter, as a message storm would). A run never drains, so
   only the runner's progress watchdog can end it. *)
let stalling_instance env =
  let engine = Ocube_mutex.Runner.engine env in
  let rec chatter () = ignore (Ocube_sim.Engine.schedule engine ~delay:1.0 chatter) in
  let armed = ref false in
  {
    Ocube_mutex.Types.algo_name = "stalling";
    request_cs =
      (fun _ ->
        if not !armed then begin
          armed := true;
          chatter ()
        end);
    release_cs = (fun _ -> ());
    on_recovered = (fun _ -> ());
    snapshot_tree = (fun () -> None);
    token_holders = (fun () -> []);
    invariant_check = (fun () -> Ok ());
    repair_bound = 0.0;
  }
