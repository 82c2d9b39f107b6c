(* Batched two-list queue: [front] holds the oldest elements in FIFO
   order, [back] holds the newest in reverse. Invariant: if [front] is
   empty, [back] is empty too, so the head is always [List.hd front]. *)

type 'a t = { front : 'a list; back : 'a list; len : int }

let empty = { front = []; back = []; len = 0 }

let is_empty q = q.len = 0

let length q = q.len

let push_back q x =
  match q.front with
  | [] -> { front = [ x ]; back = []; len = q.len + 1 }
  | _ -> { q with back = x :: q.back; len = q.len + 1 }

let push_front q x = { q with front = x :: q.front; len = q.len + 1 }

let pop_front q =
  match q.front with
  | [] -> None
  | [ x ] -> Some (x, { front = List.rev q.back; back = []; len = q.len - 1 })
  | x :: tl -> Some (x, { q with front = tl; len = q.len - 1 })

let pop_back q =
  match q.back with
  | x :: tl -> Some (x, { q with back = tl; len = q.len - 1 })
  | [] -> (
    (* The newest element is the last of [front]. *)
    match q.front with
    | [] -> None
    | front -> (
      match List.rev front with
      | x :: rev_tl ->
        Some (x, { front = List.rev rev_tl; back = []; len = q.len - 1 })
      | [] -> None))

let to_list q = q.front @ List.rev q.back

let of_list xs = { front = xs; back = []; len = List.length xs }

let pop_nth q k =
  if k < 0 || k >= q.len then None
  else
    let rec split_at acc k = function
      | x :: tl when k = 0 -> (List.rev acc, x, tl)
      | x :: tl -> split_at (x :: acc) (k - 1) tl
      | [] -> assert false
    in
    let before, x, after = split_at [] k (to_list q) in
    Some (x, { front = before @ after; back = []; len = q.len - 1 })

let peek_front q = match q.front with [] -> None | x :: _ -> Some x

let exists p q = List.exists p q.front || List.exists p q.back

let find_index p q =
  let rec in_front k = function
    | [] -> None
    | x :: tl -> if p x then Some k else in_front (k + 1) tl
  in
  (* [back] is newest first: the oldest match is the last one met. *)
  let rec in_back k found = function
    | [] -> found
    | x :: tl -> in_back (k - 1) (if p x then Some k else found) tl
  in
  match in_front 0 q.front with
  | Some _ as hit -> hit
  | None -> in_back (q.len - 1) None q.back

let iter f q =
  List.iter f q.front;
  List.iter f (List.rev q.back)

let fold f acc q =
  let acc = List.fold_left f acc q.front in
  List.fold_left f acc (List.rev q.back)

let is_canonical q = q.back = []

let canonical q = if is_canonical q then q else of_list (to_list q)
