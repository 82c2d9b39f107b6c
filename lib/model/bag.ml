open Ocube_mutex.Types

type t = {
  n : int;
  mutable bag : int list;
  failed : bool array;
  mutable handler : dst:int -> src:int -> Message.t -> unit;
}

type timer = |

module Image = Ocube_mutex.Opencube_algo.Image

(* Layout of a packed message, most significant first:
     bits 49-58  src
     bits 39-48  dst
     bit     38  1 = token, 0 = request
     bits 27-37  who + 1 (request origin, or token lender + 1; 0 = nil)
     bits  0-26  the request id, as the core's image writes it
                 ({!Image.rid}, 0 = none) *)

let max_seq = 1 lsl 16
let max_nodes = 1024
let bit_token = 1 lsl 38

let create ~n =
  if n < 1 || n > max_nodes then invalid_arg "Bag.create: 1 to 1024 nodes";
  {
    n;
    bag = [];
    failed = Array.make n false;
    handler = (fun ~dst:_ ~src:_ _ -> ());
  }

let[@inline] src m = m lsr 49
let[@inline] dst m = (m lsr 39) land 0x3ff
let[@inline] is_token m = m land bit_token <> 0
let[@inline] who m = ((m lsr 27) land 0x7ff) - 1
let[@inline] rid m = m land 0x7ffffff

let of_fields ~src ~dst ~token ~who ~rid =
  if Image.rid_seq rid >= max_seq then invalid_arg "Bag.pack: seq out of range";
  (src lsl 49) lor (dst lsl 39)
  lor (if token then bit_token else 0)
  lor ((who + 1) lsl 27)
  lor rid

let rid_of m =
  let w = rid m in
  if w = 0 then None
  else Some { source = Image.rid_source w; seq = Image.rid_seq w }

let rid_word (r : request_id) = Image.rid ~source:r.source ~seq:r.seq

let pack ~src ~dst (msg : Message.t) =
  match msg with
  | Message.Request { origin; rid } ->
    of_fields ~src ~dst ~token:false ~who:origin ~rid:(rid_word rid)
  | Message.Token { lender; rid } ->
    let who = match lender with Some l -> l | None -> -1 in
    of_fields ~src ~dst ~token:true ~who
      ~rid:(match rid with Some r -> rid_word r | None -> 0)
  | Message.Enquiry _ | Message.Enquiry_answer _ | Message.Test _
  | Message.Test_answer _ | Message.Anomaly _ | Message.Void _
  | Message.Census _ | Message.Census_reply _ | Message.Custody _
  | Message.Custody_answer _ | Message.Probe _ | Message.Release
  | Message.Sk_request _ | Message.Sk_privilege _ | Message.Ra_request _
  | Message.Ra_reply ->
    invalid_arg "Bag.send: only Section 3 messages (request, token)"

let names m i =
  src m = i || dst m = i || who m = i
  || (rid m <> 0 && Image.rid_source (rid m) = i)

let rename perm m =
  let w = rid m in
  of_fields ~src:perm.(src m) ~dst:perm.(dst m) ~token:(is_token m)
    ~who:(if who m < 0 then -1 else perm.(who m))
    ~rid:
      (if w = 0 then 0
       else Image.rid ~source:perm.(Image.rid_source w) ~seq:(Image.rid_seq w))

let rec insert (m : int) = function
  | [] -> [ m ]
  | m' :: rest as l -> if m <= m' then m :: l else m' :: insert m rest

let rec remove (m : int) = function
  | [] -> invalid_arg "Bag.remove: message not in flight"
  | m' :: rest -> if Int.equal m m' then rest else m' :: remove m rest

let bag t = t.bag
let set_bag t b = t.bag <- b
let set_failed t i b = t.failed.(i) <- b

let message m =
  if is_token m then
    let l = who m in
    Message.Token { lender = (if l < 0 then None else Some l); rid = rid_of m }
  else Message.Request { origin = who m; rid = Option.get (rid_of m) }

let deliver t ~keep m =
  if not keep then t.bag <- remove m t.bag;
  t.handler ~dst:(dst m) ~src:(src m) (message m)

(* --- Runtime.S ------------------------------------------------------ *)

let size t = t.n
let delta _ = 1.0
let now _ = 0.0
let send t ~src ~dst msg = t.bag <- insert (pack ~src ~dst msg) t.bag

let set_handler _ _ _ =
  invalid_arg "Bag.set_handler: the bag dispatches through the default handler"

let set_default_handler t h = t.handler <- h
let set_drop_handler _ _ = ()

let set_timer _ ~node ~delay:_ _ =
  invalid_arg
    (Printf.sprintf
       "Bag.set_timer: node %d armed a timer; the model runs Section 3 only"
       node)

let cancel_timer _ (tm : timer) = match tm with _ -> .
let is_failed t i = t.failed.(i)
let incarnation _ _ = 0

let pp ppf m =
  let rid ppf = function
    | None -> Format.pp_print_string ppf "-"
    | Some r -> pp_request_id ppf r
  in
  let w = who m in
  if is_token m then
    Format.fprintf ppf "%d->%d tok(%s,%a)" (src m) (dst m)
      (if w < 0 then "nil" else string_of_int w)
      rid (rid_of m)
  else Format.fprintf ppf "%d->%d req(%d,%a)" (src m) (dst m) w rid (rid_of m)
