(* Invariants:

   - [sons_ix.(i)] lists exactly the [j] with [fathers.(j) = Some i],
     sorted by [dist i j] descending, ties by id ascending (so the head
     is the last-son candidate and [sons] only has to re-sort by id);
   - [root_cache = Some r] implies [fathers.(r) = None] and [r] is the
     lowest-id such node (the value the linear scan would return).

   Every mutation of [fathers] maintains the index and either maintains
   or invalidates the cache. *)

module Opencube = Ocube_topology.Opencube

let dist = Opencube.dist

type t = {
  p : int;
  fathers : int option array;
  sons_ix : int list array;
  mutable root_cache : int option;
}

let son_before fa a b =
  let da = dist fa a and db = dist fa b in
  da > db || (da = db && a < b)

let attach_son t fa j =
  let rec insert = function
    | [] -> [ j ]
    | x :: _ as l when son_before fa j x -> j :: l
    | x :: tl -> x :: insert tl
  in
  t.sons_ix.(fa) <- insert t.sons_ix.(fa)

let detach_son t fa j =
  t.sons_ix.(fa) <- List.filter (fun k -> k <> j) t.sons_ix.(fa)

let build ~p =
  let n = 1 lsl p in
  let fathers = Array.init n Opencube.initial_father in
  let sons_ix = Array.make n [] in
  let t = { p; fathers; sons_ix; root_cache = Some 0 } in
  for j = n - 1 downto 1 do
    attach_son t (j land (j - 1)) j
  done;
  t

let father t i = t.fathers.(i)

let set_father t i f =
  (match t.fathers.(i) with Some old -> detach_son t old i | None -> ());
  t.fathers.(i) <- f;
  (match f with Some j -> attach_son t j i | None -> ());
  (* A raw update may create or destroy roots: the next [root] rescans. *)
  t.root_cache <- None

let root t =
  match t.root_cache with
  | Some r when t.fathers.(r) = None -> r
  | _ ->
    let rec find i =
      if i >= Array.length t.fathers then failwith "Explicit_cube.root: no root"
      else if t.fathers.(i) = None then i
      else find (i + 1)
    in
    let r = find 0 in
    t.root_cache <- Some r;
    r

let power t i = match t.fathers.(i) with None -> t.p | Some f -> dist i f - 1

let sons t i = List.sort compare t.sons_ix.(i)

(* The index is sorted by dist descending: the first son at dist =
   power i is the answer, anything below power i ends the scan. *)
let last_son t i =
  let p_i = power t i in
  let rec scan = function
    | [] -> None
    | j :: tl ->
      let d = dist i j in
      if d = p_i then Some j else if d < p_i then None else scan tl
  in
  scan t.sons_ix.(i)

let b_transform t i =
  match last_son t i with
  | None -> invalid_arg "Explicit_cube.b_transform: node has no son"
  | Some j ->
    let fi = t.fathers.(i) in
    detach_son t i j;
    (match fi with Some f -> detach_son t f i | None -> ());
    t.fathers.(j) <- fi;
    (match fi with Some f -> attach_son t f j | None -> ());
    t.fathers.(i) <- Some j;
    attach_son t j i;
    (match t.root_cache with
    | Some r when r = i -> t.root_cache <- Some j
    | _ -> ())

let leaves t =
  let acc = ref [] in
  for i = Array.length t.fathers - 1 downto 0 do
    if t.sons_ix.(i) = [] then acc := i :: !acc
  done;
  !acc

let is_valid t = Opencube.is_valid (Opencube.of_fathers t.fathers)
