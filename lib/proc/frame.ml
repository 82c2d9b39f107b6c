exception Corrupt of string

let corrupt msg = raise (Corrupt msg)

let max_frame = 1 lsl 20

exception Oversized of int

let header len =
  if len > max_frame then raise (Oversized len);
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  b

(* One writev-like call per frame: header and payload leave in a single
   [Unix.write] so a concurrent reader of the same pipe can never observe
   a header without its payload queued behind it. Short writes are
   completed in a loop; EINTR restarts the faulting call. *)
let rec write_all fd b pos len =
  if len > 0 then begin
    let n =
      try Unix.write fd b pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd b (pos + n) (len - n)
  end

let write fd payload =
  let len = String.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.blit (header len) 0 b 0 4;
  Bytes.blit_string payload 0 b 4 len;
  write_all fd b 0 (4 + len)

let parse_len b pos =
  let len = Int32.to_int (Bytes.get_int32_be b pos) in
  if len < 0 || len > max_frame then corrupt "bad frame length";
  len

module Decoder = struct
  (* Whole frames are cut from [buf.[pos..len-1]]; the consumed prefix is
     dropped only when more room is needed, so draining k buffered frames
     costs k copies of their payloads and nothing else. *)
  type t = { mutable buf : Bytes.t; mutable pos : int; mutable len : int }

  let create () = { buf = Bytes.create 4096; pos = 0; len = 0 }

  let buffered t = t.len - t.pos

  (* Make room for [n] more bytes after the buffered ones. *)
  let reserve t n =
    let live = t.len - t.pos in
    if t.len + n > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf) in
      while live + n > !cap do
        cap := !cap * 2
      done;
      let b = if !cap = Bytes.length t.buf then t.buf else Bytes.create !cap in
      Bytes.blit t.buf t.pos b 0 live;
      t.buf <- b;
      t.pos <- 0;
      t.len <- live
    end

  let feed t s pos n =
    if pos < 0 || n < 0 || pos + n > String.length s then
      invalid_arg "Frame.Decoder.feed";
    reserve t n;
    Bytes.blit_string s pos t.buf t.len n;
    t.len <- t.len + n

  let rec read t fd =
    reserve t 4096;
    match Unix.read fd t.buf t.len (Bytes.length t.buf - t.len) with
    | n ->
      t.len <- t.len + n;
      n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read t fd

  let eof t = if buffered t > 0 then corrupt "eof inside frame"

  let next t =
    if t.len - t.pos < 4 then None
    else
      let flen = parse_len t.buf t.pos in
      if t.len - t.pos < 4 + flen then None
      else begin
        let payload = Bytes.sub_string t.buf (t.pos + 4) flen in
        t.pos <- t.pos + 4 + flen;
        if t.pos = t.len then begin
          t.pos <- 0;
          t.len <- 0
        end;
        Some payload
      end
end
