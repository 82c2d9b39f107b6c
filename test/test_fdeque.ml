(* Property tests for the hot-path containers introduced by the perf
   overhaul: the batched FIFO deque ({!Ocube_sim.Fdeque}) that replaced
   the [q @ [x]] wait queues, and the fixed-capacity ring buffer
   ({!Ocube_sim.Ringbuf}) that replaced the linear recent-rid list. Each
   structure is checked against the naive list model it replaced. *)

module Fdeque = Ocube_sim.Fdeque
module Ringbuf = Ocube_sim.Ringbuf

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_ilist = Alcotest.(check (list int))

(* --- deque: directed examples -------------------------------------------- *)

let test_deque_basics () =
  let q = Fdeque.empty in
  checkb "empty" true (Fdeque.is_empty q);
  checki "len 0" 0 (Fdeque.length q);
  let q = Fdeque.push_back (Fdeque.push_back (Fdeque.push_back q 1) 2) 3 in
  checki "len 3" 3 (Fdeque.length q);
  check_ilist "fifo order" [ 1; 2; 3 ] (Fdeque.to_list q);
  Alcotest.(check (option int)) "peek oldest" (Some 1) (Fdeque.peek_front q);
  (match Fdeque.pop_front q with
  | Some (1, q') -> check_ilist "after pop_front" [ 2; 3 ] (Fdeque.to_list q')
  | _ -> Alcotest.fail "pop_front");
  (match Fdeque.pop_back q with
  | Some (3, q') -> check_ilist "after pop_back" [ 1; 2 ] (Fdeque.to_list q')
  | _ -> Alcotest.fail "pop_back");
  (match Fdeque.pop_nth q 1 with
  | Some (2, q') -> check_ilist "after pop_nth 1" [ 1; 3 ] (Fdeque.to_list q')
  | _ -> Alcotest.fail "pop_nth");
  checkb "pop_nth out of range" true (Fdeque.pop_nth q 3 = None);
  checkb "pop empty" true (Fdeque.pop_front Fdeque.empty = None);
  checkb "persistence: original untouched" true (Fdeque.to_list q = [ 1; 2; 3 ])

let test_deque_push_front () =
  let q = Fdeque.push_front (Fdeque.push_front Fdeque.empty 1) 2 in
  check_ilist "push_front stacks" [ 2; 1 ] (Fdeque.to_list q);
  let q = Fdeque.push_back q 3 in
  check_ilist "mixed" [ 2; 1; 3 ] (Fdeque.to_list q)

let test_deque_canonical () =
  (* Same contents reached by different operation orders must marshal to
     the same bytes once canonicalized — the model checker's dedup
     depends on this. *)
  let a = Fdeque.of_list [ 1; 2; 3 ] in
  let b =
    match Fdeque.pop_front (Fdeque.of_list [ 0; 1; 2 ]) with
    | Some (0, q) -> Fdeque.push_back q 3
    | _ -> Alcotest.fail "setup"
  in
  check_ilist "same contents" (Fdeque.to_list a) (Fdeque.to_list b);
  let bytes q = Marshal.to_string (Fdeque.canonical q) [ Marshal.No_sharing ] in
  checkb "canonical images equal" true (String.equal (bytes a) (bytes b));
  checkb "of_list is canonical" true (Fdeque.is_canonical a)

(* --- ring buffer: directed examples -------------------------------------- *)

let test_ring_eviction_order () =
  let r = Ringbuf.create ~capacity:3 in
  List.iter (Ringbuf.add r) [ 1; 2; 3 ];
  check_ilist "newest first" [ 3; 2; 1 ] (Ringbuf.to_list r);
  Ringbuf.add r 4;
  (* 1 was the oldest: evicted exactly at the capacity boundary. *)
  check_ilist "evicted oldest" [ 4; 3; 2 ] (Ringbuf.to_list r);
  checkb "1 forgotten" false (Ringbuf.mem r 1);
  checkb "2 kept" true (Ringbuf.mem r 2);
  checki "length capped" 3 (Ringbuf.length r);
  Ringbuf.clear r;
  checki "cleared" 0 (Ringbuf.length r);
  checkb "cleared mem" false (Ringbuf.mem r 4)

let test_ring_duplicates () =
  (* Duplicates occupy one slot each, like the list it replaced: after
     [5;5;6] in a window of 2, one 5 survives alongside the 6. *)
  let r = Ringbuf.create ~capacity:2 in
  List.iter (Ringbuf.add r) [ 5; 5; 6 ];
  check_ilist "slots" [ 6; 5 ] (Ringbuf.to_list r);
  checkb "5 still seen" true (Ringbuf.mem r 5);
  Ringbuf.add r 7;
  checkb "last 5 evicted" false (Ringbuf.mem r 5)

let test_ring_zero_capacity () =
  let r = Ringbuf.create ~capacity:0 in
  Ringbuf.add r 1;
  checkb "nothing remembered" false (Ringbuf.mem r 1);
  checki "empty" 0 (Ringbuf.length r);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Ringbuf.create: negative capacity") (fun () ->
      ignore (Ringbuf.create ~capacity:(-1)))

(* --- qcheck properties --------------------------------------------------- *)

(* An op script drives both the deque and a plain-list model; the two
   must agree at every step. Ops are encoded as ints: 0-2 push variants,
   3-5 pop variants (the three queue policies: Fifo = pop_front,
   Lifo = pop_back, Random_order = pop_nth). *)
let run_script ops =
  let model = ref [] in
  let q = ref Fdeque.empty in
  let ok = ref true in
  (* find_index is checked on every value the script can push, so both
     halves of the deque and absent values are covered. *)
  let agree () =
    Fdeque.to_list !q = !model
    && Fdeque.length !q = List.length !model
    && List.for_all
         (fun v ->
           Fdeque.find_index (Int.equal v) !q
           = List.find_index (Int.equal v) !model)
         (List.init 126 Fun.id)
  in
  List.iter
    (fun op ->
      let v = op / 8 and kind = op mod 8 in
      (match kind with
      | 0 | 1 | 2 ->
        q := Fdeque.push_back !q v;
        model := !model @ [ v ]
      | 3 ->
        q := Fdeque.push_front !q v;
        model := v :: !model
      | 4 | 5 -> (
        match (Fdeque.pop_front !q, !model) with
        | Some (x, q'), m :: tl ->
          if x <> m then ok := false;
          q := q';
          model := tl
        | None, [] -> ()
        | _ -> ok := false)
      | 6 -> (
        match (Fdeque.pop_back !q, List.rev !model) with
        | Some (x, q'), m :: tl ->
          if x <> m then ok := false;
          q := q';
          model := List.rev tl
        | None, [] -> ()
        | _ -> ok := false)
      | _ ->
        let n = Fdeque.length !q in
        if n > 0 then
          let k = v mod n in
          match Fdeque.pop_nth !q k with
          | Some (x, q') ->
            if x <> List.nth !model k then ok := false;
            q := q';
            model := List.filteri (fun i _ -> i <> k) !model
          | None -> ok := false);
      if not (agree ()) then ok := false)
    ops;
  !ok

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:300 ~name:"deque agrees with list model under any script"
      (list_of_size (Gen.int_range 0 200) (int_range 0 1000))
      run_script;
    Test.make ~count:200 ~name:"deque round-trips through of_list/to_list"
      (list_of_size (Gen.int_range 0 50) (int_range 0 100))
      (fun l -> Fdeque.to_list (Fdeque.of_list l) = l);
    Test.make ~count:200 ~name:"canonical preserves contents and marshal-dedups"
      (list_of_size (Gen.int_range 0 40) (int_range 0 100))
      (fun l ->
        (* Build the same contents two ways: straight of_list vs pushing a
           sentinel through the front and popping it back off. *)
        let a = Fdeque.of_list l in
        let b =
          match Fdeque.pop_front (Fdeque.push_front a (-1)) with
          | Some (-1, q) -> q
          | _ -> a
        in
        Fdeque.to_list b = l
        && String.equal
             (Marshal.to_string (Fdeque.canonical a) [ Marshal.No_sharing ])
             (Marshal.to_string (Fdeque.canonical b) [ Marshal.No_sharing ]));
    Test.make ~count:300 ~name:"ring buffer remembers exactly the last w pushes"
      (pair (int_range 0 8) (list_of_size (Gen.int_range 0 60) (int_range 0 20)))
      (fun (w, pushes) ->
        let r = Ringbuf.create ~capacity:w in
        List.iter (Ringbuf.add r) pushes;
        let rec last_rev n = function
          | x :: tl when n > 0 -> x :: last_rev (n - 1) tl
          | _ -> []
        in
        let window = last_rev w (List.rev pushes) in
        Ringbuf.to_list r = window
        && List.for_all (fun v -> Ringbuf.mem r v = List.mem v window)
             (List.init 21 (fun i -> i)));
  ]

let suite =
  [
    Alcotest.test_case "deque basics" `Quick test_deque_basics;
    Alcotest.test_case "deque push_front" `Quick test_deque_push_front;
    Alcotest.test_case "deque canonical form" `Quick test_deque_canonical;
    Alcotest.test_case "ring eviction order" `Quick test_ring_eviction_order;
    Alcotest.test_case "ring duplicate handling" `Quick test_ring_duplicates;
    Alcotest.test_case "ring zero capacity" `Quick test_ring_zero_capacity;
  ]
  @ List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qcheck_tests
