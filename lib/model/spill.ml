(* Disk spill for BFS frontier segments.

   A frontier level is an ordered run of packed {!Machine.encode} keys.
   Consecutive keys in discovery order share long prefixes (BFS groups
   states by depth, and the packed layout puts the slow-moving node
   words first), so segments are front-coded: each record stores the
   length of the prefix it shares with the previous key, the suffix
   length, and the suffix bytes — both lengths as LEB128 varints. The
   first record's "previous key" is the empty string, making every
   segment self-contained.

   Segments are plain temp files. The explorer owns their lifecycle: it
   records every segment it writes and removes them all under
   [Fun.protect], so they are cleaned up on normal exit and on raised
   violations alike. Reading streams records in write order — the order
   frontier ids were assigned in — so spilling never perturbs the
   deterministic id numbering. *)

type segment = {
  path : string;
  count : int;  (* number of keys *)
  bytes : int;  (* on-disk size, for the spill stats *)
}

let count seg = seg.count
let bytes seg = seg.bytes

let put_varint buf v =
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let shared_prefix (a : string) (b : string) =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && String.unsafe_get a !i = String.unsafe_get b !i do
    incr i
  done;
  !i

(* Front-code [keys.(pos .. pos + len - 1)] into a fresh temp file. *)
let write (keys : string array) ~pos ~len =
  let path = Filename.temp_file "ocube-frontier" ".seg" in
  let buf = Buffer.create 65_536 in
  let prev = ref "" in
  for i = pos to pos + len - 1 do
    let key = keys.(i) in
    let lcp = shared_prefix !prev key in
    put_varint buf lcp;
    put_varint buf (String.length key - lcp);
    Buffer.add_substring buf key lcp (String.length key - lcp);
    prev := key
  done;
  let oc = Out_channel.open_bin path in
  Fun.protect
    ~finally:(fun () -> Out_channel.close oc)
    (fun () -> Buffer.output_buffer oc buf);
  { path; count = len; bytes = Buffer.length buf }

let read_varint ic =
  let rec go shift acc =
    match In_channel.input_char ic with
    | None -> failwith "Spill.iter: truncated segment"
    | Some c ->
      let b = Char.code c in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

(* Stream the keys back in write order. *)
let iter seg f =
  let ic = In_channel.open_bin seg.path in
  Fun.protect
    ~finally:(fun () -> In_channel.close ic)
    (fun () ->
      let prev = ref "" in
      for _ = 1 to seg.count do
        let lcp = read_varint ic in
        let suffix_len = read_varint ic in
        let b = Bytes.create (lcp + suffix_len) in
        Bytes.blit_string !prev 0 b 0 lcp;
        (match In_channel.really_input ic b lcp suffix_len with
        | Some () -> ()
        | None -> failwith "Spill.iter: truncated segment");
        let key = Bytes.unsafe_to_string b in
        prev := key;
        f key
      done)

let remove seg = try Sys.remove seg.path with Sys_error _ -> ()
