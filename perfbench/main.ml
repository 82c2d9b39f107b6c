(* Benchmark entry point: one workload per process, one JSON result line.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the run measures the end-to-end metrics; with --trace 1
   it makes the separate traced run that gives the per-layer split. *)

let workloads =
  [
    ("fuzz_mix", Perfbench.(Fuzzmix.run, Fuzzmix.trace));
    ("des_ft_open_n1024", Perfbench.(Des.run, Des.trace));
    ("proc_lockstep_n2", Perfbench.(Lockstep.run, Lockstep.trace));
  ]

let json_of_result (r : Perfbench.Common.result) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    r.correct r.attempted r.failed;
  List.iteri
    (fun i (m : Perfbench.Common.metric) ->
      if not (Float.is_finite m.value) then
        failwith (Printf.sprintf "metric %s is not finite" m.name);
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%s: {\"value\": %.17g, \"unit\": %s}"
        (Ocube_obs.Json.escape m.name) m.value (Ocube_obs.Json.escape m.unit_))
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured wall time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced run");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.assoc_opt !workload workloads with
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" !workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  | Some _ when !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) ->
    prerr_endline usage;
    exit 2
  | Some (run, trace_run) ->
    let r = if !trace = 1 then trace_run ~seed:!seed else run ~seed:!seed ~seconds:!seconds in
    print_endline (json_of_result r)
