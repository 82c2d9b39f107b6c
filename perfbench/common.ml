(* Plumbing shared by the three workloads: clocks, GC settling, peak
   memory, the metric list a run reports, and the repetition loop. *)

let clock = Unix.gettimeofday

(* Collect the previous repetition's garbage before timing the next one,
   so no repetition pays for another's heap. *)
let settle () = Gc.full_major ()

let timed f =
  settle ();
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* Repeat [f] until [seconds] of wall time have gone by, at least
   [min_reps] times. Each call is timed on its own after a GC settle. *)
let repeat ~seconds ~min_reps f =
  let start = clock () in
  let rec go i acc =
    if i >= min_reps && clock () -. start >= seconds then List.rev acc
    else
      let r, dt = timed (fun () -> f i) in
      go (i + 1) ((r, dt) :: acc)
  in
  go 0 []

(* A repetition is timed part by part (scenario chunks, replicas, blocks
   of acquires): [parts.(r).(j)] is part [j] of repetition [r]. The time
   used is the sum over parts of each part's fastest repetition. The work
   is deterministic, so no repetition can beat the uncontended time; on a
   shared host, contention comes in bursts shorter than a repetition, and
   a ~60 ms part usually has some repetition that missed them all. *)
let fastest_sum parts =
  match parts with
  | [] -> invalid_arg "Common.fastest_sum: no repetitions"
  | p0 :: _ ->
    let acc = ref 0.0 in
    Array.iteri
      (fun j _ -> acc := !acc +. List.fold_left (fun m p -> Float.min m p.(j)) infinity parts)
      p0;
    !acc

(* One line per repetition, then the time the metric uses. *)
let print_reps label parts =
  List.iteri
    (fun i p ->
      Printf.printf "%s rep %d: %.6f s; parts: %s\n" label (i + 1)
        (Array.fold_left ( +. ) 0.0 p)
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.5f") p))))
    parts;
  Printf.printf "%s sum of per-part minima over %d reps: %.6f s (used)\n%!" label
    (List.length parts) (fastest_sum parts)

(* A fixed computation that uses none of the program's code: a hash table
   and a float sort, about 10 ms. Run right before a timed part, it
   measures how fast the shared host is at that moment. *)
let reference () =
  let n = 1 lsl 14 in
  let h = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace h ((i * 7919) land 0xfffff) (ref i)
  done;
  let acc = ref 0 in
  for i = 0 to (4 * n) - 1 do
    match Hashtbl.find_opt h ((i * 104729) land 0xfffff) with
    | Some v -> acc := !acc + !v
    | None -> ()
  done;
  let a = Array.init n (fun i -> Float.of_int ((i * 2654435761) land 0xffff)) in
  Array.sort Float.compare a;
  ignore (Sys.opaque_identity (!acc, a))

(* The reference's time when nothing else competes for the host: the 1st
   percentile of 12,862 runs on a 2-vCPU KVM guest (Xeon, 2.1 GHz), where
   the fastest took 7.7 ms. It turns corrected part times back into
   seconds. *)
let reference_nominal = 0.008

type sample = { t : float; ref_t : float }

let timed_part f =
  settle ();
  let t0 = clock () in
  reference ();
  let t1 = clock () in
  let r = f () in
  (r, { t = clock () -. t1; ref_t = t1 -. t0 })

let corrected s = s.t /. s.ref_t *. reference_nominal

let raw_total p = Array.fold_left (fun a s -> a +. s.t) 0.0 p

let corrected_total p = Array.fold_left (fun a s -> a +. corrected s) 0.0 p

(* The host-corrected time of a run timed in parts ([parts.(r).(j)], part
   [j] of repetition [r]): the sum over parts of the median over
   repetitions of each part's corrected time. *)
let corrected_sum parts =
  match parts with
  | [] -> invalid_arg "Common.corrected_sum: no repetitions"
  | p0 :: _ ->
    let acc = ref 0.0 in
    Array.iteri
      (fun j _ -> acc := !acc +. Stat.median (List.map (fun p -> corrected p.(j)) parts))
      p0;
    !acc

let print_corrected label parts =
  List.iteri
    (fun i p ->
      Printf.printf "%s rep %d: %.6f s (corrected %.6f s); parts (time/reference): %s\n" label
        (i + 1) (raw_total p)
        (corrected_total p)
        (String.concat " "
           (Array.to_list (Array.map (fun s -> Printf.sprintf "%.5f/%.5f" s.t s.ref_t) p))))
    parts;
  Printf.printf
    "%s over %d reps: corrected %.6f s (used); raw sum of per-part minima %.6f s\n%!" label
    (List.length parts) (corrected_sum parts)
    (fastest_sum (List.map (Array.map (fun s -> s.t)) parts))

let per x n = if n = 0 then 0.0 else x /. float_of_int n

let ns_per s n = per (s *. 1e9) n

let us_per s n = per (s *. 1e6) n

let pct_over a b = if b > 0.0 then (a -. b) /. b *. 100.0 else 0.0

(* Splitmix-derived sub-seeds, so replica/scenario seeds are a pure
   function of the run's --seed. *)
let sub_seed ~seed j =
  let r = Ocube_sim.Rng.create ((seed * 1_000_003) + j) in
  Int64.to_int (Ocube_sim.Rng.bits64 r) land 0x3fff_ffff
