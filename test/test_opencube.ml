(* Structural tests for the open-cube (paper, Section 2): construction,
   dist closed form, p-groups, powers, boundary edges, Theorem 2.1
   (b-transformation), Prop. 2.3 (branch bound), Figures 2/3/5. *)

module Opencube = Ocube_topology.Opencube
module Hypercube = Ocube_topology.Opencube.Hypercube
module Explicit_cube = Ocube_oracle.Explicit_cube

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- construction and accessors ---------------------------------------- *)

let test_build_small () =
  let c = Opencube.build ~p:0 in
  checki "order" 1 (Opencube.order c);
  checki "root" 0 (Opencube.root c);
  Alcotest.(check (option int)) "father of root" None (Opencube.father c 0);
  let c2 = Opencube.build ~p:1 in
  Alcotest.(check (option int)) "father of 1" (Some 0) (Opencube.father c2 1)

let test_build_father_formula () =
  let c = Opencube.build ~p:5 in
  for i = 1 to 31 do
    Alcotest.(check (option int))
      (Printf.sprintf "father %d" i)
      (Some (i land (i - 1)))
      (Opencube.father c i)
  done

let test_initial_powers () =
  (* Initial power of node i is the number of trailing zero bits. *)
  let c = Opencube.build ~p:4 in
  checki "power root" 4 (Opencube.power c 0);
  checki "power 1" 0 (Opencube.power c 1);
  checki "power 2" 1 (Opencube.power c 2);
  checki "power 4" 2 (Opencube.power c 4);
  checki "power 8" 3 (Opencube.power c 8);
  checki "power 12" 2 (Opencube.power c 12)

let test_sons_count_matches_power () =
  (* "a node of power p has exactly p sons, whose powers range from 0 to
     p-1" (Section 2). *)
  let c = Opencube.build ~p:5 in
  for i = 0 to 31 do
    let sons = Opencube.sons c i in
    checki
      (Printf.sprintf "sons of %d" i)
      (Opencube.power c i)
      (List.length sons);
    let powers = List.sort compare (List.map (Opencube.power c) sons) in
    Alcotest.(check (list int))
      (Printf.sprintf "son powers of %d" i)
      (List.init (Opencube.power c i) (fun k -> k))
      powers
  done

(* --- dist --------------------------------------------------------------- *)

let test_dist_closed_form_vs_reference () =
  List.iter
    (fun p ->
      let m = Opencube.dist_matrix ~p in
      let n = 1 lsl p in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          checki (Printf.sprintf "dist %d %d" i j) m.(i).(j) (Opencube.dist i j)
        done
      done)
    [ 0; 1; 2; 3; 4; 5 ]

let test_dist_paper_examples () =
  (* Paper (1-based): dist(1,2)=1; dist(1,j)=2 for j in {3,4}; 3 for 5..8;
     4 for 9..16. 0-based: subtract one from ids. *)
  checki "dist 1 2" 1 (Opencube.dist 0 1);
  checki "dist 1 3" 2 (Opencube.dist 0 2);
  checki "dist 1 4" 2 (Opencube.dist 0 3);
  List.iter (fun j -> checki "3-group" 3 (Opencube.dist 0 j)) [ 4; 5; 6; 7 ];
  List.iter
    (fun j -> checki "4-group" 4 (Opencube.dist 0 j))
    [ 8; 9; 10; 11; 12; 13; 14; 15 ]

let test_dist_metric_properties () =
  (* dist is an ultrametric: d(i,i)=0, symmetric,
     d(i,k) <= max(d(i,j), d(j,k)). *)
  let n = 32 in
  for i = 0 to n - 1 do
    checki "identity" 0 (Opencube.dist i i);
    for j = 0 to n - 1 do
      checki "symmetry" (Opencube.dist i j) (Opencube.dist j i);
      for k = 0 to n - 1 do
        checkb "ultrametric" true
          (Opencube.dist i k <= max (Opencube.dist i j) (Opencube.dist j k))
      done
    done
  done

let test_p_group () =
  Alcotest.(check (list int)) "1-group of 0" [ 0; 1 ] (Opencube.p_group ~d:1 0);
  Alcotest.(check (list int))
    "2-group of 6" [ 4; 5; 6; 7 ]
    (Opencube.p_group ~d:2 6);
  Alcotest.(check (list int))
    "0-group is singleton" [ 9 ]
    (Opencube.p_group ~d:0 9);
  (* Members of the same d-group are exactly the nodes at dist <= d. *)
  let g = Opencube.p_group ~d:3 11 in
  List.iter (fun j -> checkb "dist within group" true (Opencube.dist 11 j <= 3)) g

(* --- proposition 2.1 / corollary 2.1 ------------------------------------ *)

let test_prop21_power_of_son () =
  (* If j is a son of i then power j = dist i j - 1. *)
  let c = Opencube.build ~p:5 in
  for j = 1 to 31 do
    match Opencube.father c j with
    | Some i -> checki "prop 2.1" (Opencube.dist i j - 1) (Opencube.power c j)
    | None -> ()
  done

let test_cor21_father_unique () =
  (* father(i) is the only node j with dist i j = power i + 1 and
     power j > power i. *)
  let c = Opencube.build ~p:4 in
  for i = 1 to 15 do
    let p_i = Opencube.power c i in
    let candidates =
      List.filter
        (fun j ->
          j <> i
          && Opencube.dist i j = p_i + 1
          && Opencube.power c j > p_i)
        (List.init 16 (fun k -> k))
    in
    Alcotest.(check (list int))
      (Printf.sprintf "unique father of %d" i)
      [ Option.get (Opencube.father c i) ]
      candidates
  done

(* --- b-transformation (Theorem 2.1) ------------------------------------ *)

let test_b_transform_preserves_structure () =
  let c = Opencube.build ~p:4 in
  Opencube.b_transform c 0;
  (* 0's last son is 8. *)
  Alcotest.(check (option int)) "8 is root" None (Opencube.father c 8);
  Alcotest.(check (option int)) "0 under 8" (Some 8) (Opencube.father c 0);
  checkb "still an open-cube" true (Opencube.is_valid c);
  checki "power of 8 rose" 4 (Opencube.power c 8);
  checki "power of 0 fell" 3 (Opencube.power c 0)

let test_b_transform_on_leaf_rejected () =
  let c = Opencube.build ~p:3 in
  Alcotest.check_raises "no son"
    (Invalid_argument "Opencube.b_transform: node has no son") (fun () ->
      Opencube.b_transform c 7)

let test_fig5_non_boundary_swap_breaks () =
  (* Figure 5: swapping node 1 with its non-last son 2 (paper numbering)
     destroys the 4-open-cube. *)
  let c = Opencube.build ~p:2 in
  (* paper node 1 = id 0 (root, power 2); paper node 2 = id 1 (power 0):
     not the last son (the last son is id 2). Manual swap: *)
  Opencube.set_father c 1 None;
  Opencube.set_father c 0 (Some 1);
  checkb "structure destroyed" false (Opencube.is_valid c)

let test_groups_static_under_b_transform () =
  (* Corollaries 2.2/2.3: group membership and distances never change -
     dist is a pure function, so it suffices that the checker keeps passing
     while powers stay consistent through arbitrary b-transformations. *)
  let c = Opencube.build ~p:4 in
  let rng = Ocube_sim.Rng.create 99 in
  for _ = 1 to 500 do
    let i = Ocube_sim.Rng.int rng 16 in
    if Opencube.sons c i <> [] then begin
      Opencube.b_transform c i;
      match Opencube.check c with
      | Ok () -> ()
      | Error m -> Alcotest.failf "broken after swap at %d: %s" i m
    end
  done

(* --- branches and Prop. 2.3 -------------------------------------------- *)

let test_branch_and_depth () =
  let c = Opencube.build ~p:4 in
  Alcotest.(check (list int)) "branch of 15" [ 15; 14; 12; 8; 0 ]
    (Opencube.branch c 15);
  checki "depth of 15" 4 (Opencube.depth c 15);
  checki "depth of root" 0 (Opencube.depth c 0)

let test_prop23_branch_bound () =
  (* r <= log2 N - n1 on every branch of every randomly-evolved cube. *)
  let rng = Ocube_sim.Rng.create 7 in
  List.iter
    (fun p ->
      let c = Opencube.build ~p in
      for _ = 1 to 200 do
        let i = Ocube_sim.Rng.int rng (1 lsl p) in
        if Opencube.sons c i <> [] then Opencube.b_transform c i;
        let leaf = Ocube_sim.Rng.int rng (1 lsl p) in
        let r, n1 = Opencube.branch_stats c leaf in
        if r > p - n1 then
          Alcotest.failf "branch bound violated: r=%d n1=%d p=%d" r n1 p
      done)
    [ 1; 2; 3; 4; 5; 6 ]

let test_leaves () =
  let c = Opencube.build ~p:3 in
  (* Odd ids are the initial leaves. *)
  Alcotest.(check (list int)) "leaves" [ 1; 3; 5; 7 ] (Opencube.leaves c)

(* --- checker ------------------------------------------------------------ *)

let test_checker_accepts_initial () =
  List.iter
    (fun p -> checkb "valid" true (Opencube.is_valid (Opencube.build ~p)))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_checker_rejects_cycle () =
  let c = Opencube.build ~p:2 in
  Opencube.set_father c 0 (Some 1);
  Opencube.set_father c 1 (Some 0);
  checkb "2-cycle rejected" false (Opencube.is_valid c)

let test_checker_rejects_self_loop () =
  let c = Opencube.build ~p:1 in
  Opencube.set_father c 1 (Some 1);
  checkb "self-loop rejected" false (Opencube.is_valid c)

let test_checker_rejects_two_roots () =
  let c = Opencube.build ~p:2 in
  Opencube.set_father c 2 None;
  checkb "two roots rejected" false (Opencube.is_valid c)

let test_checker_rejects_wrong_link () =
  (* Link the two halves through non-root nodes. *)
  let c = Opencube.build ~p:2 in
  Opencube.set_father c 2 (Some 1);
  Opencube.set_father c 3 (Some 2);
  checkb "wrong inter-half link rejected" false (Opencube.is_valid c)

let test_of_fathers_validation () =
  Alcotest.check_raises "length must be a power of two"
    (Invalid_argument "Opencube.of_fathers: length must be a power of two")
    (fun () -> ignore (Opencube.of_fathers [| None; Some 0; Some 0 |]))

(* --- figures ------------------------------------------------------------ *)

let test_fig3_initial_tree_inside_hypercube () =
  List.iter
    (fun p ->
      let c = Opencube.build ~p in
      List.iter
        (fun (son, father) ->
          checkb
            (Printf.sprintf "edge %d-%d is a hypercube edge" son father)
            true
            (Hypercube.is_edge son father))
        (Opencube.edges c);
      (* A spanning tree uses exactly n-1 of the hypercube's p*2^(p-1)
         edges. *)
      checki "edge count" ((1 lsl p) - 1) (List.length (Opencube.edges c)))
    [ 1; 2; 3; 4; 5 ]

let test_render_mentions_all_nodes () =
  let c = Opencube.build ~p:3 in
  let s = Opencube.render c in
  for i = 1 to 8 do
    checkb
      (Printf.sprintf "node %d rendered" i)
      true
      (Tutil.contains s (string_of_int i))
  done

let test_to_dot () =
  let c = Opencube.build ~p:2 in
  let dot = Opencube.to_dot c in
  checkb "digraph" true (Tutil.contains dot "digraph");
  checkb "edge 1->0" true (Tutil.contains dot "n1 -> n0")

let test_root_cache_agrees_with_scan () =
  (* The cached root must stay equal to the linear scan it replaced
     through long b-transformation chains (exact cache maintenance) and
     across raw [set_father] edits (cache invalidation). *)
  let p = 6 in
  let c = Opencube.build ~p in
  let n = 1 lsl p in
  let rng = Ocube_sim.Rng.create 17 in
  let scan_root () =
    let rec find i =
      if i >= n then Alcotest.fail "no root"
      else match Opencube.father c i with None -> i | Some _ -> find (i + 1)
    in
    find 0
  in
  for step = 1 to 10_000 do
    let i = Ocube_sim.Rng.int rng n in
    if Opencube.last_son c i <> None then Opencube.b_transform c i;
    if step mod 100 = 0 then
      checki "root = scan during b-transform chain" (scan_root ())
        (Opencube.root c)
  done;
  checki "root = scan after 10k b-transforms" (scan_root ()) (Opencube.root c);
  (* Raw surgery: move the root under some node and crown a new one. *)
  let r = Opencube.root c in
  let other = (r + 1) mod n in
  let f = match Opencube.father c other with Some f -> f | None -> r in
  Opencube.set_father c other None;
  Opencube.set_father c r (Some other);
  checki "root = scan after set_father" (scan_root ()) (Opencube.root c);
  Opencube.set_father c r None;
  Opencube.set_father c other (Some f);
  checki "root = scan after restoring" (scan_root ()) (Opencube.root c)

(* --- qcheck properties --------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:200
      ~name:"random b-transformation sequences preserve the open-cube"
      (pair (int_range 1 6) (list_of_size (Gen.int_range 0 60) (int_range 0 1000)))
      (fun (p, picks) ->
        let c = Opencube.build ~p in
        List.iter
          (fun pick ->
            let i = pick mod (1 lsl p) in
            if Opencube.sons c i <> [] then Opencube.b_transform c i)
          picks;
        Opencube.is_valid c);
    Test.make ~count:200 ~name:"power sums to n-1 over all nodes"
      (pair (int_range 1 6) (list_of_size (Gen.int_range 0 40) (int_range 0 1000)))
      (fun (p, picks) ->
        (* Each node of power q has q sons; total sons = n-1 edges. *)
        let c = Opencube.build ~p in
        List.iter
          (fun pick ->
            let i = pick mod (1 lsl p) in
            if Opencube.sons c i <> [] then Opencube.b_transform c i)
          picks;
        let n = 1 lsl p in
        let total = ref 0 in
        for i = 0 to n - 1 do
          total := !total + Opencube.power c i
        done;
        !total = n - 1);
    Test.make ~count:500 ~name:"dist equals bit length of xor"
      (pair (int_range 0 4095) (int_range 0 4095))
      (fun (i, j) ->
        let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
        Opencube.dist i j = bits 0 (i lxor j));
    Test.make ~count:200 ~name:"branch bound r <= p - n1 (Prop 2.3)"
      (pair (int_range 1 7) (list_of_size (Gen.int_range 0 80) (int_range 0 10000)))
      (fun (p, picks) ->
        let c = Opencube.build ~p in
        List.iter
          (fun pick ->
            let i = pick mod (1 lsl p) in
            if Opencube.sons c i <> [] then Opencube.b_transform c i)
          picks;
        List.for_all
          (fun leaf ->
            let r, n1 = Opencube.branch_stats c leaf in
            r <= p - n1)
          (List.init (1 lsl p) (fun i -> i)));
    Test.make ~count:200 ~name:"last son has power = father's power - 1"
      (pair (int_range 1 6) (list_of_size (Gen.int_range 0 40) (int_range 0 1000)))
      (fun (p, picks) ->
        let c = Opencube.build ~p in
        List.iter
          (fun pick ->
            let i = pick mod (1 lsl p) in
            if Opencube.sons c i <> [] then Opencube.b_transform c i)
          picks;
        List.for_all
          (fun i ->
            match Opencube.last_son c i with
            | None -> Opencube.power c i = 0
            | Some j -> Opencube.power c j = Opencube.power c i - 1)
          (List.init (1 lsl p) (fun i -> i)));
    Test.make ~count:200
      ~name:"every d-group contains exactly one d-root (Cor 2.2)"
      (pair (int_range 1 6) (list_of_size (Gen.int_range 0 60) (int_range 0 1000)))
      (fun (p, picks) ->
        (* The d-groups are static blocks; in any open cube each holds
           exactly one node of power >= d (its local root). *)
        let c = Opencube.build ~p in
        List.iter
          (fun pick ->
            let i = pick mod (1 lsl p) in
            if Opencube.sons c i <> [] then Opencube.b_transform c i)
          picks;
        let ok = ref true in
        for d = 0 to p do
          let blocks = 1 lsl (p - d) in
          for b = 0 to blocks - 1 do
            let group = Opencube.p_group ~d (b lsl d) in
            let roots =
              List.filter (fun i -> Opencube.power c i >= d) group
            in
            if List.length roots <> 1 then ok := false
          done
        done;
        !ok);
    Test.make ~count:200
      ~name:"power = dist to father - 1 (Prop 2.1) under any transforms"
      (pair (int_range 1 6) (list_of_size (Gen.int_range 0 60) (int_range 0 1000)))
      (fun (p, picks) ->
        let c = Opencube.build ~p in
        List.iter
          (fun pick ->
            let i = pick mod (1 lsl p) in
            if Opencube.sons c i <> [] then Opencube.b_transform c i)
          picks;
        List.for_all
          (fun i ->
            match Opencube.father c i with
            | None -> Opencube.power c i = p
            | Some f -> Opencube.power c i = Opencube.dist i f - 1)
          (List.init (1 lsl p) (fun i -> i)));
    (* Oracle parity: the Bigarray + id-arithmetic tree must be
       observationally identical to the explicit reference tree — per
       node, on every accessor — for any b-transform history. *)
    Test.make ~count:200
      ~name:"explicit/implicit parity under b-transform chains"
      (pair (int_range 1 8)
         (list_of_size (Gen.int_range 0 80) (int_range 0 100_000)))
      (fun (p, picks) ->
        let e = Explicit_cube.build ~p in
        let im = Opencube.build ~p in
        let n = 1 lsl p in
        List.iter
          (fun pick ->
            let i = pick mod n in
            match Explicit_cube.last_son e i with
            | Some _ ->
              Explicit_cube.b_transform e i;
              Opencube.b_transform im i
            | None -> ())
          picks;
        let ok = ref (Explicit_cube.root e = Opencube.root im) in
        for i = 0 to n - 1 do
          if
            Explicit_cube.father e i <> Opencube.father im i
            || Explicit_cube.power e i <> Opencube.power im i
            || Explicit_cube.sons e i <> Opencube.sons im i
            || Explicit_cube.last_son e i <> Opencube.last_son im i
          then ok := false
        done;
        !ok
        && Explicit_cube.leaves e = Opencube.leaves im
        && Explicit_cube.is_valid e && Opencube.is_valid im);
    (* Raw surgery drops the tree to its untrusted scan fallback; the
       fallback — and the re-certification performed by a successful
       check — must still agree with the explicit oracle. *)
    Test.make ~count:200
      ~name:"explicit/implicit parity under raw set_father surgery"
      (pair (int_range 1 8)
         (list_of_size (Gen.int_range 0 24)
            (pair (int_range 0 100_000) (int_range 0 100_000))))
      (fun (p, edits) ->
        let n = 1 lsl p in
        let e = Explicit_cube.build ~p in
        let im = Opencube.build ~p in
        List.iter
          (fun (a, b) ->
            let i = a mod n in
            let fo =
              let v = b mod (n + 1) in
              if v = n then None else Some v
            in
            Explicit_cube.set_father e i fo;
            Opencube.set_father im i fo)
          edits;
        let agree () =
          let ok = ref true in
          for i = 0 to n - 1 do
            if
              Explicit_cube.father e i <> Opencube.father im i
              || Explicit_cube.sons e i <> Opencube.sons im i
              || Explicit_cube.last_son e i <> Opencube.last_son im i
            then ok := false
          done;
          !ok
        in
        let untrusted_ok = agree () in
        (* check verdicts must match; when they pass, the tree is back on
           the closed-form path and must still agree. *)
        let ve = Explicit_cube.is_valid e and vi = Opencube.is_valid im in
        untrusted_ok && ve = vi && agree ());
  ]

(* The closed-form initial-tree formulas against the explicit structures,
   exhaustively for every node at p <= 8. *)
let test_initial_closed_forms () =
  for p = 0 to 8 do
    let c = Explicit_cube.build ~p in
    for i = 0 to (1 lsl p) - 1 do
      Alcotest.(check (option int))
        (Printf.sprintf "initial_father p=%d i=%d" p i)
        (Explicit_cube.father c i) (Opencube.initial_father i);
      checki
        (Printf.sprintf "initial_power p=%d i=%d" p i)
        (Explicit_cube.power c i)
        (Opencube.initial_power ~p i);
      Alcotest.(check (list int))
        (Printf.sprintf "initial_sons p=%d i=%d" p i)
        (Explicit_cube.sons c i)
        (Opencube.initial_sons ~p i);
      Alcotest.(check (option int))
        (Printf.sprintf "initial_last_son p=%d i=%d" p i)
        (Explicit_cube.last_son c i)
        (Opencube.initial_last_son ~p i)
    done
  done

let suite =
  [
    Alcotest.test_case "build tiny cubes" `Quick test_build_small;
    Alcotest.test_case "father formula i land (i-1)" `Quick
      test_build_father_formula;
    Alcotest.test_case "initial powers (trailing zeros)" `Quick
      test_initial_powers;
    Alcotest.test_case "sons count and powers match Section 2" `Quick
      test_sons_count_matches_power;
    Alcotest.test_case "dist closed form = recursive definition" `Quick
      test_dist_closed_form_vs_reference;
    Alcotest.test_case "dist matches the paper's examples" `Quick
      test_dist_paper_examples;
    Alcotest.test_case "dist is an ultrametric" `Quick
      test_dist_metric_properties;
    Alcotest.test_case "p-groups are aligned blocks" `Quick test_p_group;
    Alcotest.test_case "Prop 2.1: power of a son" `Quick
      test_prop21_power_of_son;
    Alcotest.test_case "Cor 2.1: father is unique" `Quick
      test_cor21_father_unique;
    Alcotest.test_case "Thm 2.1: b-transformation" `Quick
      test_b_transform_preserves_structure;
    Alcotest.test_case "b-transformation rejected on a leaf" `Quick
      test_b_transform_on_leaf_rejected;
    Alcotest.test_case "Fig 5: non-boundary swap breaks structure" `Quick
      test_fig5_non_boundary_swap_breaks;
    Alcotest.test_case "checker survives 500 random swaps" `Quick
      test_groups_static_under_b_transform;
    Alcotest.test_case "branches and depths" `Quick test_branch_and_depth;
    Alcotest.test_case "Prop 2.3 branch bound" `Quick test_prop23_branch_bound;
    Alcotest.test_case "leaves of the initial cube" `Quick test_leaves;
    Alcotest.test_case "checker accepts initial cubes" `Quick
      test_checker_accepts_initial;
    Alcotest.test_case "checker rejects 2-cycles" `Quick
      test_checker_rejects_cycle;
    Alcotest.test_case "checker rejects self-loops" `Quick
      test_checker_rejects_self_loop;
    Alcotest.test_case "checker rejects double roots" `Quick
      test_checker_rejects_two_roots;
    Alcotest.test_case "checker rejects mislinked halves" `Quick
      test_checker_rejects_wrong_link;
    Alcotest.test_case "of_fathers validates size" `Quick
      test_of_fathers_validation;
    Alcotest.test_case "Fig 3: initial cube inside the hypercube" `Quick
      test_fig3_initial_tree_inside_hypercube;
    Alcotest.test_case "ASCII rendering covers all nodes" `Quick
      test_render_mentions_all_nodes;
    Alcotest.test_case "DOT export" `Quick test_to_dot;
    Alcotest.test_case "root cache agrees with the scan" `Quick
      test_root_cache_agrees_with_scan;
    Alcotest.test_case "closed-form initial tree = explicit structures"
      `Quick test_initial_closed_forms;
  ]
  @ List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qcheck_tests
