(* Wire codec and transport framing: qcheck round-trips of every message
   constructor, length-prefixed framing over a real socketpair (short
   writes, partial reads), torn frames at every split point through the
   incremental decoder, in memory and over a socket, and oversized-length
   rejection on the writer and the reader. *)

module Types = Ocube_mutex.Types
module Message = Types.Message
module Wire = Ocube_mutex.Wire
module Frame = Ocube_proc.Frame

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- generators ---------------------------------------------------------- *)

let gen_id =
  (* small ids dominate real traffic; the full int range exercises
     multi-byte zigzag varints including both extremes *)
  QCheck.Gen.(
    frequency
      [ (6, small_signed_int); (3, int); (1, oneofl [ min_int; max_int; 0 ]) ])

let gen_rid =
  QCheck.Gen.map2 (fun source seq -> { Types.source; seq }) gen_id gen_id

let gen_msg =
  let open QCheck.Gen in
  oneof
    [
      map2 (fun origin rid -> Message.Request { origin; rid }) gen_id gen_rid;
      map2
        (fun lender rid -> Message.Token { lender; rid })
        (option gen_id) (option gen_rid);
      map (fun rid -> Message.Enquiry { rid }) gen_rid;
      map2
        (fun rid answer -> Message.Enquiry_answer { rid; answer })
        gen_rid
        (oneofl [ Types.In_cs; Types.Token_sent; Types.Token_lost ]);
      map (fun d -> Message.Test { d }) gen_id;
      map2
        (fun d answer -> Message.Test_answer { d; answer })
        gen_id
        (oneofl [ Types.Father_ok; Types.Holder_ok; Types.Try_later ]);
      map (fun rid -> Message.Anomaly { rid }) gen_rid;
      map (fun rid -> Message.Void { rid }) gen_rid;
      map (fun round -> Message.Census { round }) gen_id;
      map2
        (fun round reply -> Message.Census_reply { round; reply })
        gen_id
        (oneofl [ Types.Token_exists; Types.Census_defer ]);
      map (fun rid -> Message.Custody { rid }) gen_rid;
      map3
        (fun rid held ahead -> Message.Custody_answer { rid; held; ahead })
        gen_rid bool
        (frequency [ (3, return 0); (4, small_nat); (3, gen_id) ]);
      map3
        (fun initiator rid hops -> Message.Probe { initiator; rid; hops })
        gen_id gen_rid gen_id;
      return Message.Release;
      map2 (fun origin seq -> Message.Sk_request { origin; seq }) gen_id gen_id;
      map2
        (fun queue ln -> Message.Sk_privilege { queue; ln = Array.of_list ln })
        (small_list gen_id) (small_list gen_id);
      map2
        (fun origin clock -> Message.Ra_request { origin; clock })
        gen_id gen_id;
      return Message.Ra_reply;
    ]

let arb_msg = QCheck.make ~print:(Fmt.to_to_string Message.pp) gen_msg

let msg_equal a b =
  (a = b) [@ocube.lint.allow "no-poly-compare"]

(* --- codec round-trip ----------------------------------------------------- *)

let qcheck_roundtrip =
  QCheck.Test.make ~name:"wire decode (encode m) = m" ~count:2000 arb_msg
    (fun m -> msg_equal (Wire.decode (Wire.encode m)) m)

let qcheck_canonical =
  (* self-delimiting + whole-string decode: appending any byte breaks it *)
  QCheck.Test.make ~name:"wire rejects trailing bytes" ~count:500
    QCheck.(pair arb_msg (0 -- 255))
    (fun (m, b) ->
      let s = Wire.encode m ^ String.make 1 (Char.chr b) in
      match Wire.decode s with
      | _ -> false
      | exception Wire.Corrupt _ -> true)

let qcheck_truncation =
  QCheck.Test.make ~name:"wire rejects every truncation" ~count:500 arb_msg
    (fun m ->
      let s = Wire.encode m in
      let ok = ref true in
      for i = 0 to String.length s - 1 do
        (match Wire.decode (String.sub s 0 i) with
        | _ -> ok := false
        | exception Wire.Corrupt _ -> ());
        ()
      done;
      !ok)

(* Tag 16 is the rid, the held flag (one byte, 0 or 1; anything else is
   corruption) and the lease's backlog [ahead] as a varint: one byte for
   0, more for large backlogs. *)
let test_custody_held_flag () =
  let rid = { Types.source = 3; seq = 7 } in
  let s = Wire.encode (Message.Custody_answer { rid; held = true; ahead = 0 }) in
  Alcotest.(check string) "layout" "\016\006\014\001\000" s;
  let flipped = String.sub s 0 (String.length s - 2) ^ "\002\000" in
  Alcotest.check_raises "held flag 2" (Wire.Corrupt "bad held flag") (fun () ->
      ignore (Wire.decode flipped));
  List.iter
    (fun ahead ->
      let m = Message.Custody_answer { rid; held = true; ahead } in
      checkb
        (Printf.sprintf "ahead %d round-trips" ahead)
        true
        (msg_equal (Wire.decode (Wire.encode m)) m))
    [ 0; 1; 63; 64; 1024; 1 lsl 40; max_int ];
  checki "ahead 63 takes one byte" (String.length s)
    (String.length
       (Wire.encode (Message.Custody_answer { rid; held = true; ahead = 63 })));
  checki "ahead 1024 takes two" (String.length s + 1)
    (String.length
       (Wire.encode (Message.Custody_answer { rid; held = true; ahead = 1024 })))

let test_mix_matches_mix_raw () =
  let m = Message.Release in
  let a = Wire.mix "" ~dst:3 m in
  let b = Wire.mix_raw "" ~dst:3 (Wire.encode m) in
  Alcotest.(check string) "mix = mix_raw . encode" a b;
  checkb "fold order matters" false
    (String.equal
       (Wire.mix a ~dst:1 (Message.Census { round = 1 }))
       (Wire.mix a ~dst:2 (Message.Census { round = 1 })))

(* --- framing: torn frames at every split point --------------------------- *)

let sample_payloads =
  [
    Wire.encode Message.Release;
    Wire.encode (Message.Request { origin = 5; rid = { source = 5; seq = 9 } });
    "";
    String.make 300 'x';
    Wire.encode (Message.Sk_privilege { queue = [ 1; 2; 3 ]; ln = [| 7; 8 |] });
  ]

let frame_bytes payload =
  let b = Buffer.create 64 in
  Buffer.add_char b (Char.chr (String.length payload lsr 24 land 0xff));
  Buffer.add_char b (Char.chr (String.length payload lsr 16 land 0xff));
  Buffer.add_char b (Char.chr (String.length payload lsr 8 land 0xff));
  Buffer.add_char b (Char.chr (String.length payload land 0xff));
  Buffer.add_string b payload;
  Buffer.contents b

let drain dec =
  let rec go acc =
    match Frame.Decoder.next dec with
    | Some f -> go (f :: acc)
    | None -> List.rev acc
  in
  go []

let test_decoder_every_split () =
  let stream = String.concat "" (List.map frame_bytes sample_payloads) in
  for split = 0 to String.length stream do
    let dec = Frame.Decoder.create () in
    Frame.Decoder.feed dec stream 0 split;
    let early = drain dec in
    Frame.Decoder.feed dec stream split (String.length stream - split);
    let late = drain dec in
    let got = early @ late in
    checki
      (Printf.sprintf "frame count at split %d" split)
      (List.length sample_payloads)
      (List.length got);
    List.iter2
      (fun want have -> Alcotest.(check string) "payload" want have)
      sample_payloads got;
    checki "no residue" 0 (Frame.Decoder.buffered dec)
  done

let test_decoder_byte_at_a_time () =
  let stream = String.concat "" (List.map frame_bytes sample_payloads) in
  let dec = Frame.Decoder.create () in
  let got = ref [] in
  String.iteri
    (fun i _ ->
      Frame.Decoder.feed dec stream i 1;
      got := !got @ drain dec)
    stream;
  checki "all frames" (List.length sample_payloads) (List.length !got)

let test_decoder_oversized () =
  let dec = Frame.Decoder.create () in
  let bad = frame_bytes "" in
  (* pretend the empty payload is 2 MiB long *)
  let bad = "\x00\x20\x00\x01" ^ String.sub bad 4 (String.length bad - 4) in
  Frame.Decoder.feed dec bad 0 (String.length bad);
  Alcotest.check_raises "oversized length" (Frame.Corrupt "bad frame length")
    (fun () -> ignore (Frame.Decoder.next dec));
  let neg = Frame.Decoder.create () in
  Frame.Decoder.feed neg "\xff\xff\xff\xff" 0 4;
  Alcotest.check_raises "negative length" (Frame.Corrupt "bad frame length")
    (fun () -> ignore (Frame.Decoder.next neg))

let test_write_oversized () =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () ->
      checkb "Oversized raised" true
        (match Frame.write w (String.make (Frame.max_frame + 1) 'x') with
        | () -> false
        | exception Frame.Oversized _ -> true))

(* --- framing over a real socketpair -------------------------------------- *)

(* The nodes' and the parent's read path: one [Decoder.read] per wake,
   then every whole frame buffered; [Decoder.eof] when the read returns
   0. *)
let read_to_eof dec fd =
  let rec go acc =
    if Frame.Decoder.read dec fd = 0 then begin
      Frame.Decoder.eof dec;
      acc
    end
    else go (acc @ drain dec)
  in
  go []

let with_socketpair f =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let test_socketpair_roundtrip () =
  with_socketpair (fun r w ->
      List.iter (fun p -> Frame.write w p) sample_payloads;
      let dec = Frame.Decoder.create () in
      let rec until_all acc =
        if List.length acc >= List.length sample_payloads then acc
        else if Frame.Decoder.read dec r = 0 then Alcotest.fail "early EOF"
        else until_all (acc @ drain dec)
      in
      List.iter2
        (fun want have -> Alcotest.(check string) "frame" want have)
        sample_payloads (until_all []);
      Unix.close w;
      checki "EOF at boundary reads 0" 0 (Frame.Decoder.read dec r);
      checki "nothing buffered" 0 (Frame.Decoder.buffered dec);
      Frame.Decoder.eof dec)

let test_socketpair_short_writes () =
  (* the writer dribbles one byte per syscall; the decoder must
     reassemble exactly the same frames *)
  with_socketpair (fun r w ->
      (* single-byte writes each cost the kernel a whole skb of buffer
         accounting, so the dribbled stream must stay small to fit the
         socket buffer without a concurrent reader *)
      let dribbled =
        [
          Wire.encode Message.Release;
          "";
          Wire.encode
            (Message.Request { origin = 5; rid = { source = 5; seq = 9 } });
          "hello";
        ]
      in
      let stream = String.concat "" (List.map frame_bytes dribbled) in
      String.iter
        (fun ch -> ignore (Unix.write w (Bytes.make 1 ch) 0 1))
        stream;
      Unix.close w;
      let dec = Frame.Decoder.create () in
      let got = read_to_eof dec r in
      checki "frame count" (List.length dribbled) (List.length got);
      List.iter2
        (fun want have -> Alcotest.(check string) "frame" want have)
        dribbled got;
      checki "clean EOF" 0 (Frame.Decoder.buffered dec))

(* A frame cut at every point: cuts 1..3 tear the header, the rest the
   payload. Either way the whole frames ahead of it are delivered and
   the EOF is [Corrupt]. *)
let test_torn_stream_is_corrupt () =
  let whole = frame_bytes "ok" in
  let full = frame_bytes (String.make 32 'y') in
  for cut = 1 to String.length full - 1 do
    with_socketpair (fun r w ->
        ignore (Unix.write_substring w whole 0 (String.length whole));
        ignore (Unix.write_substring w full 0 cut);
        Unix.close w;
        let dec = Frame.Decoder.create () in
        let got = ref [] in
        checkb
          (Printf.sprintf "cut at %d raises Corrupt" cut)
          true
          (match
             while Frame.Decoder.read dec r > 0 do
               got := !got @ drain dec
             done;
             Frame.Decoder.eof dec
           with
          | () -> false
          | exception Frame.Corrupt _ -> true);
        Alcotest.(check (list string)) "frame ahead delivered" [ "ok" ] !got)
  done

let test_socket_oversized () =
  with_socketpair (fun r w ->
      ignore (Unix.write_substring w "\x00\x20\x00\x01" 0 4);
      let dec = Frame.Decoder.create () in
      checki "header read" 4 (Frame.Decoder.read dec r);
      Alcotest.check_raises "oversized length" (Frame.Corrupt "bad frame length")
        (fun () -> ignore (Frame.Decoder.next dec)))

let suite =
  [
    Alcotest.test_case "mix agrees with mix_raw" `Quick test_mix_matches_mix_raw;
    Alcotest.test_case "custody answer rejects a bad held flag" `Quick
      test_custody_held_flag;
    Alcotest.test_case "decoder survives every split point" `Quick
      test_decoder_every_split;
    Alcotest.test_case "decoder byte-at-a-time" `Quick
      test_decoder_byte_at_a_time;
    Alcotest.test_case "decoder rejects oversized length" `Quick
      test_decoder_oversized;
    Alcotest.test_case "write rejects oversized payload" `Quick
      test_write_oversized;
    Alcotest.test_case "socketpair round-trip + boundary EOF" `Quick
      test_socketpair_roundtrip;
    Alcotest.test_case "short writes reassemble" `Quick
      test_socketpair_short_writes;
    Alcotest.test_case "torn stream is Corrupt" `Quick
      test_torn_stream_is_corrupt;
    Alcotest.test_case "oversized length over a socket" `Quick
      test_socket_oversized;
  ]
  @ List.map
      (fun t -> QCheck_alcotest.to_alcotest ~long:false t)
      [ qcheck_roundtrip; qcheck_canonical; qcheck_truncation ]
