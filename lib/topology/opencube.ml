(* The open cube as one flat Bigarray of father ids (-1 for the root):
   O(N) words off the OCaml heap, no per-node records, no adjacency
   lists. Everything else is recomputed by id arithmetic (DESIGN.md §11):

   - [dist], p-groups and the initial tree are closed forms of the id;
   - in a {e valid} open cube, node [i] has exactly one son at each
     distance [d] in [1 .. power i] — the root of the sibling
     (d-1)-group — recovered by walking the father chain up from the
     mirror id [i lxor (1 lsl (d-1))] in at most [d] steps, so [sons]
     is O(p^2) and [last_son]/[b_transform] are O(p) with zero
     allocation on the hot path.

   The son reconstruction is only sound in valid states, so the tree
   tracks a [trusted] bit: [build] and [b_transform] preserve it, raw
   [set_father] and [of_fathers] clear it, a successful [check] restores
   it. While untrusted, [sons] and [last_son] fall back to an O(N) scan
   of the father array, so recovery transients still get exact answers.
   The test suite checks these accessors against an explicit
   record-and-adjacency reference tree, in valid and broken states. *)

type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  p : int;
  fathers : int_ba; (* fathers.{i} = father id, or -1 for a root *)
  mutable root_cache : int; (* cached root id, -1 = unknown *)
  mutable trusted : bool; (* closed-form son reconstruction is sound *)
}

let order t = Bigarray.Array1.dim t.fathers

let pmax t = t.p

let check_node t i =
  if i < 0 || i >= order t then
    invalid_arg (Printf.sprintf "Opencube: node %d out of range [0,%d)" i (order t))

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc m = if m = 1 then acc else go (acc + 1) (m lsr 1) in
  go 0 n

(* Bit length of [i lxor j]: the closed form for the paper's dist.
   Branch-free — smear the top bit down, then SWAR-popcount the mask.
   The 64-bit popcount constants do not fit OCaml's 63-bit ints, so the
   count runs on two 32-bit halves; node ids are < 2^25 anyway. *)
let[@ocube.zero_alloc] popcount32 v =
  let v = v - ((v lsr 1) land 0x55555555) in
  let v = (v land 0x33333333) + ((v lsr 2) land 0x33333333) in
  let v = (v + (v lsr 4)) land 0x0F0F0F0F in
  ((v * 0x01010101) lsr 24) land 0x3F

let[@ocube.zero_alloc] popcount v =
  popcount32 (v land 0xFFFFFFFF) + popcount32 ((v lsr 32) land 0x7FFFFFFF)

let[@ocube.zero_alloc] dist i j =
  let x = i lxor j in
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  let x = x lor (x lsr 32) in
  popcount x

(* --- closed forms of the initial binomial tree (Figure 2) ---------------- *)

let initial_father i =
  if i < 0 then invalid_arg "Opencube.initial_father: negative id"
  else if i = 0 then None
  else Some (i land (i - 1))

(* power of [i] in the initial tree: [p] for the root, otherwise the index
   of the lowest set bit ([dist i (i land (i-1)) - 1]). *)
let initial_power ~p i =
  if i = 0 then p else log2 (i land -i)

(* sons of [i] initially: [i lor (1 lsl b)] for [b] below the lowest set
   bit of [i] (all of [0 .. p-1] for the root); the son at distance
   [b + 1]. *)
let initial_sons ~p i =
  List.init (initial_power ~p i) (fun b -> i lor (1 lsl b))

let initial_last_son ~p i =
  let pw = initial_power ~p i in
  if pw = 0 then None else Some (i lor (1 lsl (pw - 1)))

(* --- construction --------------------------------------------------------- *)

let build ~p =
  if p < 0 || p > 24 then invalid_arg "Opencube.build: p must be in [0,24]";
  let n = 1 lsl p in
  let fathers = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  fathers.{0} <- -1;
  for i = 1 to n - 1 do
    fathers.{i} <- i land (i - 1)
  done;
  { p; fathers; root_cache = 0; trusted = true }

let of_fathers fathers =
  let n = Array.length fathers in
  if not (is_power_of_two n) then
    invalid_arg "Opencube.of_fathers: length must be a power of two";
  Array.iter
    (function
      | Some f when f < 0 || f >= n ->
        invalid_arg "Opencube.of_fathers: father id out of range"
      | _ -> ())
    fathers;
  let ba = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    ba.{i} <- (match fathers.(i) with None -> -1 | Some f -> f)
  done;
  { p = log2 n; fathers = ba; root_cache = -1; trusted = false }

let copy t =
  let fathers =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (order t)
  in
  Bigarray.Array1.blit t.fathers fathers;
  { t with fathers }

let dist_matrix ~p =
  (* Reference implementation straight from Definition 2.2: dist i j is the
     smallest d such that i and j share the same aligned 2^d block. *)
  let n = 1 lsl p in
  let m = Array.make_matrix n n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let rec smallest d = if i lsr d = j lsr d then d else smallest (d + 1) in
      m.(i).(j) <- smallest 0
    done
  done;
  m

let p_group ~d i =
  if d < 0 then invalid_arg "Opencube.p_group: negative d";
  let base = (i lsr d) lsl d in
  List.init (1 lsl d) (fun k -> base + k)

(* --- father access -------------------------------------------------------- *)

(* Raw father as an int, -1 for none. *)
let[@ocube.zero_alloc] father_raw t i = t.fathers.{i}

let father t i =
  check_node t i;
  match father_raw t i with -1 -> None | f -> Some f

let set_father t i f =
  check_node t i;
  (match f with Some j -> check_node t j | None -> ());
  t.fathers.{i} <- (match f with None -> -1 | Some j -> j);
  (* The update may create or destroy roots and leave any structure at
     all: forget the root, and reconstruct sons by scanning until [check]
     succeeds again. *)
  t.root_cache <- -1;
  t.trusted <- false

let root t =
  let cached = t.root_cache in
  if cached >= 0 && father_raw t cached = -1 then cached
  else begin
    let n = order t in
    let rec find i =
      if i >= n then failwith "Opencube.root: no root (corrupted father array)"
      else if father_raw t i = -1 then i
      else find (i + 1)
    in
    let r = find 0 in
    t.root_cache <- r;
    r
  end

let[@ocube.zero_alloc] power t i =
  check_node t i;
  match father_raw t i with -1 -> pmax t | f -> dist i f - 1

(* --- sons ------------------------------------------------------------------ *)

(* Closed form: the son of [i] at distance [d] is the root of the
   sibling (d-1)-group, reached from the mirror id [i lxor (1 lsl (d-1))]
   by climbing fathers while they stay inside that aligned block. Valid
   states terminate in at most [d] steps with a node whose father is [i];
   anything else means the state is not a legal open cube and the caller
   must fall back to the scan. *)
let[@ocube.zero_alloc] rec son_climb t i d blk j steps =
  if steps > d then -1
  else
    let f = t.fathers.{j} in
    if f = i then j
    else if f >= 0 && f lsr (d - 1) = blk then son_climb t i d blk f (steps + 1)
    else -1

let[@ocube.zero_alloc] son_at t i d =
  let m = i lxor (1 lsl (d - 1)) in
  let blk = m lsr (d - 1) in
  son_climb t i d blk m 0

(* O(N) fallback used while the tree is untrusted (recovery transients,
   unchecked adoptions). A self-loop ([father j = j], surgery transients
   only) counts as a son of itself. *)
let scan_sons t i =
  let n = order t in
  let acc = ref [] in
  for j = n - 1 downto 0 do
    if father_raw t j = i then acc := j :: !acc
  done;
  !acc

let sons t i =
  check_node t i;
  if t.trusted then begin
    let acc = ref [] in
    let ok = ref true in
    for d = power t i downto 1 do
      match son_at t i d with
      | -1 -> ok := false
      | s -> acc := s :: !acc
    done;
    if !ok then List.sort compare !acc else scan_sons t i
  end
  else scan_sons t i

let last_son t i =
  let p_i = power t i in
  if p_i = 0 then None
  else if t.trusted then (
    match son_at t i p_i with
    | -1 -> None
    | s -> Some s)
  else
    (* Untrusted: the smallest-id son at dist exactly [power i]. *)
    let n = order t in
    let best = ref (-1) in
    for j = n - 1 downto 0 do
      if j <> i && t.fathers.{j} = i && dist i j = p_i then best := j
    done;
    if !best < 0 then None else Some !best

let[@ocube.zero_alloc] is_last_son t ~son ~father:fa =
  check_node t son;
  check_node t fa;
  father_raw t son = fa && son <> fa && dist fa son = power t fa

let is_boundary_edge = is_last_son

let b_transform t i =
  check_node t i;
  match last_son t i with
  | None -> invalid_arg "Opencube.b_transform: node has no son"
  | Some j ->
    let fi = t.fathers.{i} in
    t.fathers.{j} <- fi;
    t.fathers.{i} <- j;
    (* Theorem 2.1: the swap of a valid cube is valid, so [trusted] is
       preserved as-is; only the root may have moved (from i to j). *)
    if t.root_cache = i then t.root_cache <- j

let edges t =
  let acc = ref [] in
  for i = order t - 1 downto 0 do
    match father_raw t i with -1 -> () | f -> acc := (i, f) :: !acc
  done;
  !acc

let branch t i =
  check_node t i;
  let n = order t in
  let rec up acc len j =
    if len > n then failwith "Opencube.branch: cycle in father pointers"
    else
      match father_raw t j with
      | -1 -> List.rev (j :: acc)
      | f -> up (j :: acc) (len + 1) f
  in
  up [] 0 i

let depth t i = List.length (branch t i) - 1

(* One marking pass, without materializing adjacency. A self-loop does
   not make its node a father. *)
let leaves t =
  let n = order t in
  let has_son = Bytes.make n '\000' in
  for j = 0 to n - 1 do
    match father_raw t j with
    | -1 -> ()
    | f -> if f <> j then Bytes.unsafe_set has_son f '\001'
  done;
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if Bytes.unsafe_get has_son i = '\000' then acc := i :: !acc
  done;
  !acc

let branch_stats t i =
  let path = branch t i in
  let r = List.length path - 1 in
  (* Count the nodes on the branch (excluding the root) that are not last
     sons of their father: Prop. 2.3's n1. *)
  let rec count acc = function
    | [] | [ _ ] -> acc
    | son :: (fa :: _ as rest) ->
      let acc = if is_last_son t ~son ~father:fa then acc else acc + 1 in
      count acc rest
  in
  (r, count 0 path)

let check t =
  let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
  let fa i = father_raw t i in
  (* Recursively compute the root of each aligned d-group, verifying that the
     only edge leaving each group is the one from its root and that the edge
     joining the two halves of a group links their roots (Section 2). *)
  let rec group_root d base =
    if d = 0 then
      (* A 0-group's root is its single node; reject self-loops. *)
      if fa base = base then
        Error (Printf.sprintf "node %d is its own father" base)
      else Ok base
    else
      let half = 1 lsl (d - 1) in
      let* r1 = group_root (d - 1) base in
      let* r2 = group_root (d - 1) (base + half) in
      let inside v = v >= base && v < base + (1 lsl d) in
      (* Every node of the group except its root must have a father inside
         the group; sub-group roots are the only candidates for pointing
         outside their half, so only r1/r2 need inspection here. *)
      let f1 = fa r1 and f2 = fa r2 in
      if f1 = r2 && f2 = r1 then
        Error (Printf.sprintf "2-cycle between %d and %d" r1 r2)
      else if f2 = r1 then Ok r1
      else if f1 = r2 then Ok r2
      else if f1 >= 0 && inside f1 then
        Error
          (Printf.sprintf
             "in %d-group at %d: root %d of first half points inside the \
              group but not to sibling root %d"
             d base r1 r2)
      else if f2 >= 0 && inside f2 then
        Error
          (Printf.sprintf
             "in %d-group at %d: root %d of second half points inside the \
              group but not to sibling root %d"
             d base r2 r1)
      else
        Error
          (Printf.sprintf
             "%d-group at %d: halves with roots %d and %d are not linked" d
             base r1 r2)
  in
  let result =
    let* r = group_root (pmax t) 0 in
    match fa r with
    | -1 -> Ok ()
    | f -> Error (Printf.sprintf "global root %d has father %d" r f)
  in
  (* A successful check certifies the closed-form son reconstruction
     again; a failure pins the scan fallback. *)
  t.trusted <- Result.is_ok result;
  result

(* The if-chain above deserves a note: within a (d-1)-group, group_root has
   already validated that every non-root node's father stays inside that
   half, so when assembling a d-group the only father pointers that can
   cross between halves (or leave the group) are those of r1 and r2. *)

let is_valid t = match check t with Ok () -> true | Error _ -> false

let default_label i = string_of_int (i + 1)

let render ?(label = default_label) t =
  let buf = Buffer.create 256 in
  let rec emit prefix i =
    Buffer.add_string buf prefix;
    Buffer.add_string buf (label i);
    Buffer.add_string buf
      (Printf.sprintf "  (power %d)\n" (power t i));
    (* Highest-power son first, matching the paper's drawings. *)
    let ss =
      List.sort (fun a b -> compare (power t b) (power t a)) (sons t i)
    in
    List.iter (fun s -> emit (prefix ^ "  ") s) ss
  in
  emit "" (root t);
  Buffer.contents buf

let to_dot ?(label = default_label) t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph opencube {\n  rankdir=BT;\n";
  for i = 0 to order t - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" i (label i))
  done;
  List.iter
    (fun (son, fa) -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" son fa))
    (edges t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (render t)

(* --- hypercube views ------------------------------------------------------- *)

(* The open cube is a spanning tree of the p-hypercube (Figure 3); the
   graph-level helpers live here since they are the same id arithmetic. *)
module Hypercube = struct
  let order ~p = 1 lsl p

  let neighbors ~p i =
    if i < 0 || i >= 1 lsl p then
      invalid_arg "Hypercube.neighbors: out of range";
    List.init p (fun b -> i lxor (1 lsl b)) |> List.sort compare

  let edges ~p =
    let n = 1 lsl p in
    let acc = ref [] in
    for i = n - 1 downto 0 do
      for b = p - 1 downto 0 do
        let j = i lxor (1 lsl b) in
        if i < j then acc := (i, j) :: !acc
      done
    done;
    List.sort compare !acc

  let hamming i j = popcount (i lxor j)

  let is_edge i j = hamming i j = 1
end
