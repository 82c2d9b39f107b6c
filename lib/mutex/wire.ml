exception Corrupt of string

let corrupt msg = raise (Corrupt msg)

(* Zigzag varint: small magnitudes (node ids, phases, sequence numbers)
   take one byte; negative sentinels remain encodable. *)
let add_int b n =
  let z = (n lsl 1) lxor (n asr 62) in
  let rec go z =
    if z land lnot 0x7f = 0 then Buffer.add_char b (Char.chr z)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (z land 0x7f)));
      go (z lsr 7)
    end
  in
  go z

type cursor = { data : string; mutable pos : int }

let cursor s = { data = s; pos = 0 }

let cursor_done c = c.pos = String.length c.data

let read_byte c =
  if c.pos >= String.length c.data then corrupt "truncated";
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let read_int c =
  let rec go shift acc =
    if shift > 62 then corrupt "varint overflow";
    let byte = read_byte c in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then acc else go (shift + 7) acc
  in
  let z = go 0 0 in
  (z lsr 1) lxor (-(z land 1))

let add_option b add = function
  | None -> Buffer.add_char b '\000'
  | Some v ->
    Buffer.add_char b '\001';
    add b v

let read_option c read =
  match read_byte c with
  | 0 -> None
  | 1 -> Some (read c)
  | _ -> corrupt "bad option tag"

let add_string b s =
  add_int b (String.length s);
  Buffer.add_string b s

let read_string c =
  let len = read_int c in
  if len < 0 || len > 1_048_576 then corrupt "bad string length";
  if c.pos + len > String.length c.data then corrupt "truncated";
  let s = String.sub c.data c.pos len in
  c.pos <- c.pos + len;
  s

let add_rid b (r : Types.request_id) =
  add_int b r.source;
  add_int b r.seq

let read_rid c : Types.request_id =
  let source = read_int c in
  let seq = read_int c in
  { source; seq }

let add_list b add l =
  add_int b (List.length l);
  List.iter (fun v -> add b v) l

let read_list c read =
  let len = read_int c in
  if len < 0 || len > 1_000_000 then corrupt "bad list length";
  List.init len (fun _ -> read c)

open Types

let enquiry_answer_tag = function In_cs -> 0 | Token_sent -> 1 | Token_lost -> 2

let enquiry_answer_of_tag = function
  | 0 -> In_cs
  | 1 -> Token_sent
  | 2 -> Token_lost
  | _ -> corrupt "bad enquiry_answer"

let test_answer_tag = function Father_ok -> 0 | Holder_ok -> 1 | Try_later -> 2

let test_answer_of_tag = function
  | 0 -> Father_ok
  | 1 -> Holder_ok
  | 2 -> Try_later
  | _ -> corrupt "bad test_answer"

let census_reply_tag = function Token_exists -> 0 | Census_defer -> 1

let census_reply_of_tag = function
  | 0 -> Token_exists
  | 1 -> Census_defer
  | _ -> corrupt "bad census_reply"

let encode_to b (m : Message.t) =
  match m with
  | Message.Request { origin; rid } ->
    Buffer.add_char b '\000';
    add_int b origin;
    add_rid b rid
  | Message.Token { lender; rid } ->
    Buffer.add_char b '\001';
    add_option b add_int lender;
    add_option b add_rid rid
  | Message.Enquiry { rid } ->
    Buffer.add_char b '\002';
    add_rid b rid
  | Message.Enquiry_answer { rid; answer } ->
    Buffer.add_char b '\003';
    add_rid b rid;
    add_int b (enquiry_answer_tag answer)
  | Message.Test { d } ->
    Buffer.add_char b '\004';
    add_int b d
  | Message.Test_answer { d; answer } ->
    Buffer.add_char b '\005';
    add_int b d;
    add_int b (test_answer_tag answer)
  | Message.Anomaly { rid } ->
    Buffer.add_char b '\006';
    add_rid b rid
  | Message.Void { rid } ->
    Buffer.add_char b '\007';
    add_rid b rid
  | Message.Census { round } ->
    Buffer.add_char b '\008';
    add_int b round
  | Message.Census_reply { round; reply } ->
    Buffer.add_char b '\009';
    add_int b round;
    add_int b (census_reply_tag reply)
  | Message.Release -> Buffer.add_char b '\010'
  | Message.Sk_request { origin; seq } ->
    Buffer.add_char b '\011';
    add_int b origin;
    add_int b seq
  | Message.Sk_privilege { queue; ln } ->
    Buffer.add_char b '\012';
    add_list b add_int queue;
    add_int b (Array.length ln);
    Array.iter (fun v -> add_int b v) ln
  | Message.Ra_request { origin; clock } ->
    Buffer.add_char b '\013';
    add_int b origin;
    add_int b clock
  | Message.Ra_reply -> Buffer.add_char b '\014'
  | Message.Custody { rid } ->
    Buffer.add_char b '\015';
    add_rid b rid
  | Message.Custody_answer { rid; held; ahead } ->
    Buffer.add_char b '\016';
    add_rid b rid;
    Buffer.add_char b (if held then '\001' else '\000');
    add_int b ahead
  | Message.Probe { initiator; rid; hops } ->
    Buffer.add_char b '\017';
    add_int b initiator;
    add_rid b rid;
    add_int b hops

let encode m =
  let b = Buffer.create 16 in
  encode_to b m;
  Buffer.contents b

let decode_cursor c : Message.t =
  match read_byte c with
  | 0 ->
    let origin = read_int c in
    let rid = read_rid c in
    Message.Request { origin; rid }
  | 1 ->
    let lender = read_option c read_int in
    let rid = read_option c read_rid in
    Message.Token { lender; rid }
  | 2 -> Message.Enquiry { rid = read_rid c }
  | 3 ->
    let rid = read_rid c in
    let answer = enquiry_answer_of_tag (read_int c) in
    Message.Enquiry_answer { rid; answer }
  | 4 -> Message.Test { d = read_int c }
  | 5 ->
    let d = read_int c in
    let answer = test_answer_of_tag (read_int c) in
    Message.Test_answer { d; answer }
  | 6 -> Message.Anomaly { rid = read_rid c }
  | 7 -> Message.Void { rid = read_rid c }
  | 8 -> Message.Census { round = read_int c }
  | 9 ->
    let round = read_int c in
    let reply = census_reply_of_tag (read_int c) in
    Message.Census_reply { round; reply }
  | 10 -> Message.Release
  | 11 ->
    let origin = read_int c in
    let seq = read_int c in
    Message.Sk_request { origin; seq }
  | 12 ->
    let queue = read_list c read_int in
    let len = read_int c in
    if len < 0 || len > 1_000_000 then corrupt "bad array length";
    let ln = Array.init len (fun _ -> read_int c) in
    Message.Sk_privilege { queue; ln }
  | 13 ->
    let origin = read_int c in
    let clock = read_int c in
    Message.Ra_request { origin; clock }
  | 14 -> Message.Ra_reply
  | 15 -> Message.Custody { rid = read_rid c }
  | 16 ->
    let rid = read_rid c in
    let held =
      match read_byte c with 0 -> false | 1 -> true | _ -> corrupt "bad held flag"
    in
    let ahead = read_int c in
    Message.Custody_answer { rid; held; ahead }
  | 17 ->
    let initiator = read_int c in
    let rid = read_rid c in
    let hops = read_int c in
    Message.Probe { initiator; rid; hops }
  | _ -> corrupt "bad message tag"

let decode s =
  let c = { data = s; pos = 0 } in
  let m = decode_cursor c in
  if c.pos <> String.length s then corrupt "trailing bytes";
  m

(* Per-node send checksum used by the DES↔process conformance suite: a
   rolling MD5 over the destination and the wire bytes of each message a
   node sends, in send order. Both runtimes fold with this exact
   function, so equality means byte-identical per-node send sequences. *)
let mix_raw acc ~dst raw =
  Digest.to_hex (Digest.string (acc ^ string_of_int dst ^ ":" ^ raw))

let mix acc ~dst msg = mix_raw acc ~dst (encode msg)
