(* Tests for the open-cube automorphism group and state canonicalization:
   group structure against brute-force enumeration of all dist-preserving
   permutations, canonicalization properties (idempotence, generator
   invariance, isomorphic decodes), and exhaustive orbit sizes at small p. *)

module Machine = Ocube_model.Machine
module Symmetry = Ocube_model.Symmetry

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- brute force over S_n -------------------------------------------------- *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        List.map
          (fun rest -> x :: rest)
          (permutations (List.filter (fun y -> y <> x) l)))
      l

(* Every dist-preserving permutation of [0 .. 2^p - 1], by filtering all
   of S_n — the ground truth the generated group must match. *)
let brute_force_group p =
  let n = 1 lsl p in
  permutations (List.init n Fun.id)
  |> List.map Array.of_list
  |> List.filter (Symmetry.is_automorphism ~p)

let perm_to_string a =
  String.concat "," (List.map string_of_int (Array.to_list a))

(* --- group structure ------------------------------------------------------- *)

let test_group_orders () =
  List.iter
    (fun (p, expect) ->
      let t = Symmetry.table ~p in
      checki (Printf.sprintf "order at p=%d" p) expect (Symmetry.order t);
      checkb "full group" true (Symmetry.is_exact t))
    [ (0, 1); (1, 2); (2, 8); (3, 128) ];
  (* 2^(2^4 - 1) = 32768 blows the cap: translation-subgroup fallback. *)
  let t4 = Symmetry.table ~p:4 in
  checki "fallback order at p=4" 16 (Symmetry.order t4);
  checkb "fallback is not exact" true (not (Symmetry.is_exact t4))

let test_group_equals_brute_force () =
  List.iter
    (fun p ->
      let t = Symmetry.table ~p in
      let brute =
        List.sort_uniq String.compare
          (List.map perm_to_string (brute_force_group p))
      in
      let table =
        List.sort_uniq String.compare
          (List.init (Symmetry.order t) (fun k ->
               perm_to_string (Symmetry.perm t k)))
      in
      checki
        (Printf.sprintf "brute-force count at p=%d" p)
        (List.length brute) (List.length table);
      checkb
        (Printf.sprintf "same set at p=%d" p)
        true
        (List.equal String.equal brute table))
    [ 0; 1; 2; 3 ]

let test_group_laws () =
  let t = Symmetry.table ~p:3 in
  let n = 8 in
  let id = Array.init n Fun.id in
  checkb "element 0 is the identity" true (Symmetry.perm t 0 = id);
  for a = 0 to Symmetry.order t - 1 do
    checki "a . a^-1 = id" 0 (Symmetry.compose t a (Symmetry.inverse t a));
    checki "a^-1 . a = id" 0 (Symmetry.compose t (Symmetry.inverse t a) a);
    let b = (a * 37) mod Symmetry.order t in
    let ab = Symmetry.compose t a b in
    let pa = Symmetry.perm t a
    and pb = Symmetry.perm t b in
    let expect = Array.init n (fun i -> pa.(pb.(i))) in
    checkb "compose matches array composition" true
      (Symmetry.perm t ab = expect)
  done

let test_generators_are_automorphisms () =
  List.iter
    (fun p ->
      List.iter
        (fun g ->
          checkb
            (Printf.sprintf "generator at p=%d" p)
            true
            (Symmetry.is_automorphism ~p g))
        (Symmetry.generators ~p))
    [ 1; 2; 3; 4 ]

let test_bit_permutations_are_trivial () =
  (* Genuine bit shuffles preserve dist only when they are the identity:
     dist 0 (1 lsl b) = b + 1 pins every bit. Check all 6 bit shuffles
     at p=3. *)
  let p = 3 in
  let shuffles = permutations [ 0; 1; 2 ] in
  let surviving =
    List.filter
      (fun sigma ->
        let s = Array.of_list sigma in
        let a =
          Array.init 8 (fun i ->
              let r = ref 0 in
              for b = 0 to 2 do
                if i land (1 lsl b) <> 0 then r := !r lor (1 lsl s.(b))
              done;
              !r)
        in
        Symmetry.is_automorphism ~p a)
      shuffles
  in
  checki "only the identity bit-permutation survives" 1
    (List.length surviving)

(* --- canonicalization ------------------------------------------------------ *)

(* Seeded random walk through the (optionally faulty) transition graph. *)
let random_walk ?(max_faults = 0) ~seed ~p ~wishes ~steps () =
  let rng = Ocube_sim.Rng.create seed in
  let st = ref (Machine.initial ~p ~wishes) in
  let acc = ref [ !st ] in
  (try
     for _ = 1 to steps do
       match Machine.transitions ~max_faults !st with
       | [] -> raise Exit
       | ts ->
         let _, st' = List.nth ts (Ocube_sim.Rng.int rng (List.length ts)) in
         st := st';
         acc := st' :: !acc
     done
   with Exit -> ());
  !acc

let walk_states seed =
  let p = 1 + (seed mod 3) in
  let faults = if seed mod 2 = 0 then 1 else 0 in
  random_walk ~max_faults:faults ~seed ~p ~wishes:2 ~steps:16 ()

let qcheck_canon_tests =
  let open QCheck in
  [
    Test.make ~count:80 ~name:"canonicalization is idempotent"
      (int_range 0 100_000)
      (fun seed ->
        List.for_all
          (fun st ->
            let p = Machine.num_nodes st |> fun n ->
              let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
              log2 n
            in
            let t = Symmetry.table ~p in
            let c = Symmetry.canonicalize t st in
            let c' = Symmetry.canonicalize t (Machine.decode c.Symmetry.key) in
            String.equal c'.Symmetry.key c.Symmetry.key
            && c'.Symmetry.perm_index = 0
            && c'.Symmetry.orbit = c.Symmetry.orbit)
          (walk_states seed));
    Test.make ~count:80 ~name:"canonical key invariant under every generator"
      (int_range 0 100_000)
      (fun seed ->
        List.for_all
          (fun st ->
            let n = Machine.num_nodes st in
            let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
            let p = log2 n in
            let t = Symmetry.table ~p in
            let c = Symmetry.canonicalize t st in
            List.for_all
              (fun g ->
                let c' = Symmetry.canonicalize t (Machine.relabel g st) in
                String.equal c'.Symmetry.key c.Symmetry.key
                && c'.Symmetry.orbit = c.Symmetry.orbit)
              (Symmetry.generators ~p))
          (walk_states seed));
    Test.make ~count:80
      ~name:"canonical key decodes to the recorded relabeling"
      (int_range 0 100_000)
      (fun seed ->
        List.for_all
          (fun st ->
            let n = Machine.num_nodes st in
            let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
            let p = log2 n in
            let t = Symmetry.table ~p in
            let c = Symmetry.canonicalize t st in
            let sigma = Symmetry.perm t c.Symmetry.perm_index in
            Symmetry.is_automorphism ~p sigma
            && Machine.decode c.Symmetry.key = Machine.relabel sigma st)
          (walk_states seed));
    Test.make ~count:40 ~name:"dynamics are equivariant under the group"
      (int_range 0 100_000)
      (fun seed ->
        (* transitions (relabel g st) = g-image of transitions st, as
           sets — the soundness theorem behind the quotient search. *)
        List.for_all
          (fun st ->
            let n = Machine.num_nodes st in
            let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
            let p = log2 n in
            let t = Symmetry.table ~p in
            let k = 1 + (seed mod max 1 (Symmetry.order t - 1)) in
            let g = Symmetry.perm t k in
            let image =
              List.map
                (fun (tr, st') ->
                  (Machine.relabel_transition g tr, Machine.relabel g st'))
                (Machine.transitions ~max_faults:1 st)
            in
            let direct = Machine.transitions ~max_faults:1 (Machine.relabel g st) in
            List.length image = List.length direct
            && List.for_all (fun x -> List.mem x direct) image)
          (walk_states seed));
  ]

(* Exhaustive orbit check at p <= 2: the orbit size reported by
   [canonicalize] equals the number of distinct keys under *all*
   dist-preserving relabelings of S_n, and its key is that of the
   orbit's least member by content. *)
let test_orbit_sizes_exhaustive () =
  List.iter
    (fun p ->
      let group = brute_force_group p in
      let t = Symmetry.table ~p in
      List.iter
        (fun seed ->
          List.iter
            (fun st ->
              let c = Symmetry.canonicalize t st in
              let keys =
                List.sort_uniq String.compare
                  (List.map (fun g -> Machine.encode (Machine.relabel g st)) group)
              in
              checki
                (Printf.sprintf "orbit size (p=%d seed=%d)" p seed)
                (List.length keys) c.Symmetry.orbit;
              let least =
                List.fold_left
                  (fun a g ->
                    let b = Machine.relabel g st in
                    if Machine.compare b a < 0 then b else a)
                  st group
              in
              checkb "canonical key is the orbit's least member" true
                (String.equal (Machine.encode least) c.Symmetry.key))
            (random_walk ~max_faults:(seed mod 2) ~seed ~p ~wishes:2
               ~steps:12 ()))
        [ 1; 2; 3; 4; 5; 6 ])
    [ 1; 2 ]

let test_orbit_divides_order () =
  let t = Symmetry.table ~p:3 in
  List.iter
    (fun seed ->
      List.iter
        (fun st ->
          let c = Symmetry.canonicalize t st in
          checki "Lagrange: orbit divides group order" 0
            (Symmetry.order t mod c.Symmetry.orbit))
        (random_walk ~max_faults:1 ~seed ~p:3 ~wishes:1 ~steps:12 ()))
    [ 1; 2; 3 ]

let suite =
  [
    ("group orders", `Quick, test_group_orders);
    ("group equals brute force (p<=3)", `Quick, test_group_equals_brute_force);
    ("group laws", `Quick, test_group_laws);
    ("generators are automorphisms", `Quick, test_generators_are_automorphisms);
    ("bit permutations are trivial", `Quick, test_bit_permutations_are_trivial);
    ("orbit sizes vs brute force (p<=2)", `Quick, test_orbit_sizes_exhaustive);
    ("orbit divides group order", `Quick, test_orbit_divides_order);
  ]
  @ List.map
      (fun t -> QCheck_alcotest.to_alcotest ~long:false t)
      qcheck_canon_tests
