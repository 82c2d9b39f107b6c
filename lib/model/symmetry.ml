(* Automorphisms of the open cube, and canonicalization of model states
   under them.

   The distance [Opencube.dist i j] is the bit length of [i lxor j] — an
   ultrametric: every d-group block [base, base + 2^d) (base a multiple
   of 2^d) is a "ball", and a permutation of node ids preserves [dist]
   iff it maps every block onto a block of the same size. Those
   permutations form the automorphism group of the complete binary tree
   over the id space: the p-fold iterated wreath product of S2, of order
   2^(2^p - 1). Two generator families are used:

   - XOR-translations [i ↦ i lxor m]: dist (i lxor m) (j lxor m) =
     bitlen ((i lxor m) lxor (j lxor m)) = bitlen (i lxor j), so every
     mask is an automorphism. They form a subgroup of order 2^p.

   - Block half-swaps: for a level d >= 1 and one block
     [base, base + 2^d), xor bit (d-1) inside that block only. This
     swaps the two half-blocks (the block's own sub-balls) and fixes
     everything outside; distances within the block, within the
     complement, and across (always >= d+1, governed by higher bits,
     which the swap never touches) are all preserved.

   The half-swaps alone generate the full tree-automorphism group (a
   global xor of bit b is the product of all level-(b+1) half-swaps, so
   translations are included). Note that genuine *bit permutations*
   [i ↦ its bits shuffled by σ] are dist-preserving only for σ = id:
   dist 0 (1 lsl b) = b + 1 pins every bit in place. The group is
   therefore generated from translations + half-swaps and every element
   is validated against the closed-form [Opencube.dist] — see
   {!is_automorphism}.

   For p <= 3 the full group is small (|G| = 2, 8, 128) and is built by
   closure; beyond that it explodes (p = 4 already has 32768 elements),
   so [table] falls back to the XOR-translation subgroup (2^p elements,
   still a sound quotient, just a weaker one) up to p = 10. *)

module Opencube = Ocube_topology.Opencube
module Stbl = Hashtbl.Make (String)

type perm = int array

type t = {
  p : int;
  perms : perm array;  (* perms.(0) is the identity *)
  inv : int array;  (* inv.(k) = index of perms.(k)'s inverse *)
  index : int Stbl.t;  (* perm_key -> index, for composition lookups *)
  exact : bool;  (* full automorphism group, or translation subgroup *)
}

let dim t = t.p
let order t = Array.length t.perms
let perm t k = t.perms.(k)
let inverse t k = t.inv.(k)
let is_exact t = t.exact

(* Node ids fit 10 bits (p <= 10), so two bytes per entry are enough for
   an injective table key. *)
let perm_key (a : perm) =
  let n = Array.length a in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get a i in
    Bytes.unsafe_set b (2 * i) (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set b ((2 * i) + 1) (Char.unsafe_chr ((v lsr 8) land 0xff))
  done;
  Bytes.unsafe_to_string b

let compose_perm a b = Array.init (Array.length a) (fun i -> a.(b.(i)))

let invert_perm a =
  let r = Array.make (Array.length a) 0 in
  Array.iteri (fun i v -> r.(v) <- i) a;
  r

let is_bijection a =
  let n = Array.length a in
  let seen = Array.make n false in
  let ok = ref true in
  for i = 0 to n - 1 do
    let v = a.(i) in
    if v < 0 || v >= n || seen.(v) then ok := false else seen.(v) <- true
  done;
  !ok

(* Exhaustive pair check up to n = 64; beyond that, a fixed deterministic
   sample of xor-masks per node (the splitmix64 multiplier as a stream of
   pseudo-random but reproducible masks — no ambient randomness). *)
let preserves_dist ~n a =
  let check i j =
    Opencube.dist a.(i) a.(j) = Opencube.dist i j
  in
  if n <= 64 then begin
    let ok = ref true in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if not (check i j) then ok := false
      done
    done;
    !ok
  end
  else begin
    let ok = ref true in
    let state = ref 0x1E3779B97F4A7C15 in
    for i = 0 to n - 1 do
      (* every single-bit neighbour, plus 32 sampled masks *)
      let b = ref 1 in
      while !b < n do
        if not (check i (i lxor !b)) then ok := false;
        b := !b lsl 1
      done;
      for _ = 1 to 32 do
        state := (!state * 2862933555777941757) + 3037000493;
        let m = (!state lsr 20) land (n - 1) in
        if m <> 0 && not (check i (i lxor m)) then ok := false
      done
    done;
    !ok
  end

let is_automorphism ~p a =
  let n = 1 lsl p in
  Array.length a = n && is_bijection a && preserves_dist ~n a

let generators ~p =
  let n = 1 lsl p in
  let translations =
    List.init (n - 1) (fun k ->
        let m = k + 1 in
        Array.init n (fun i -> i lxor m))
  in
  let half_swaps =
    List.concat_map
      (fun d ->
        let block = 1 lsl d
        and half = 1 lsl (d - 1) in
        List.init (n / block) (fun b ->
            let base = b * block in
            Array.init n (fun i ->
                if i >= base && i < base + block then i lxor half else i)))
      (List.init p (fun d -> d + 1))
  in
  translations @ half_swaps

(* Breadth-first closure of the generators, abandoned past [full_cap]
   elements (p >= 4). Deterministic: fixed generator order, FIFO
   worklist, so the element numbering is reproducible. *)
let full_cap = 1024

let try_full_group ~p =
  let n = 1 lsl p in
  let id = Array.init n Fun.id in
  let index = Stbl.create 256 in
  Stbl.add index (perm_key id) 0;
  let acc = ref [ id ]
  and count = ref 1
  and ok = ref true in
  let gens = generators ~p in
  let queue = Queue.create () in
  Queue.add id queue;
  while !ok && not (Queue.is_empty queue) do
    let g = Queue.pop queue in
    List.iter
      (fun h ->
        if !ok then begin
          let gh = compose_perm h g in
          let key = perm_key gh in
          if not (Stbl.mem index key) then begin
            if !count >= full_cap then ok := false
            else begin
              Stbl.add index key !count;
              incr count;
              acc := gh :: !acc;
              Queue.add gh queue
            end
          end
        end)
      gens
  done;
  if !ok then Some (Array.of_list (List.rev !acc), index) else None

let translation_group ~p =
  let n = 1 lsl p in
  let perms = Array.init n (fun m -> Array.init n (fun i -> i lxor m)) in
  let index = Stbl.create (2 * n) in
  Array.iteri (fun k a -> Stbl.add index (perm_key a) k) perms;
  (perms, index)

let max_p = 10

let build p =
  if p < 0 || p > max_p then
    invalid_arg
      (Printf.sprintf "Symmetry.table: p = %d outside [0, %d]" p max_p);
  let (perms, index), exact =
    match try_full_group ~p with
    | Some g -> (g, true)
    | None -> (translation_group ~p, false)
  in
  Array.iter
    (fun a ->
      if not (is_automorphism ~p a) then
        failwith "Symmetry.table: generated a non-automorphism")
    perms;
  let inv = Array.map (fun a -> Stbl.find index (perm_key (invert_perm a))) perms in
  { p; perms; inv; index; exact }

(* Memoized per p. The first call for a given p must happen before the
   table is shared across domains (Explore builds it up front); after
   that every operation is a pure read. *)
let cache : (int, t) Hashtbl.t = Hashtbl.create 8

let table ~p =
  match Hashtbl.find_opt cache p with
  | Some t -> t
  | None ->
    let t = build p in
    Hashtbl.add cache p t;
    t

let compose t a b =
  Stbl.find t.index (perm_key (compose_perm t.perms.(a) t.perms.(b)))

type canon = {
  key : string;
  hash : int;
  in_flight : int;
  perm_index : int;
  orbit : int;
}

(* The least relabelling by content ({!Machine.compare}), so that the
   representative does not depend on node ids. *)
let canonicalize t st =
  let best = ref st
  and arg = ref 0
  and ties = ref 1 in
  for k = 1 to Array.length t.perms - 1 do
    let st' = Machine.relabel t.perms.(k) st in
    let c = Machine.compare st' !best in
    if c < 0 then begin
      best := st';
      arg := k;
      ties := 1
    end
    else if c = 0 then incr ties
  done;
  (* [ties] perms reach the minimum — exactly the coset of the canonical
     state's stabilizer — so the orbit has order / ties elements. *)
  let key, fl = Machine.encode_len !best in
  {
    key;
    hash = Machine.hash !best;
    in_flight = fl;
    perm_index = !arg;
    orbit = Array.length t.perms / !ties;
  }
