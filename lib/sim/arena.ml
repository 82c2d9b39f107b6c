(* Packed event records in a freelist arena.

   One simulation event = one slot across parallel flat arrays: fire
   time (unboxed floatarray), a strictly increasing sequence number (the
   FIFO tie-break for equal times), a generation stamp (validates timer
   ids in O(1)), an int-encoded class plus two int payload words, and an
   intrusive [next] link threading free slots onto the freelist without
   a single heap allocation. Each event's thunk, which the engine hands
   to its class handler, lives in a side array whose free slots hold a
   shared no-op.

   Slot states are encoded in [kind]:
     kind = -2  free (on the freelist)
     kind = -1  tombstone: cancelled, still inside the queue; the
                engine frees it when it surfaces
     kind >= 0  live, value is the dispatch class

   Timer ids pack [(gen lsl slot_bits) lor slot]; a fire or cancel bumps
   the slot's generation, so stale ids can never touch a recycled slot.
   [live] counts exactly the live (scheduled, uncancelled, unfired)
   events — this is what makes [Engine.pending] exact. *)

let slot_bits = 31

let slot_mask = (1 lsl slot_bits) - 1

let gen_mask = (1 lsl 30) - 1

let kind_free = -2

let kind_tombstone = -1

let no_slot = -1

let dummy_thunk () = ()

type t = {
  mutable cap : int;
  mutable time : floatarray;
  mutable seq : int array;
  mutable gen : int array;
  mutable kind : int array;
  mutable a : int array;
  mutable b : int array;
  mutable thunk : (unit -> unit) array;
  mutable next : int array;
  mutable free_head : int;
  mutable next_seq : int;
  mutable live : int;
}

let create () =
  {
    cap = 0;
    time = Float.Array.create 0;
    seq = [||];
    gen = [||];
    kind = [||];
    a = [||];
    b = [||];
    thunk = [||];
    next = [||];
    free_head = no_slot;
    next_seq = 0;
    live = 0;
  }

let[@ocube.alloc_ok (* amortised doubling: the schedule path pays it
                       O(log n) times total, never per event *)] grow t =
  let ncap = if t.cap = 0 then 64 else 2 * t.cap in
  let ntime = Float.Array.create ncap in
  Float.Array.blit t.time 0 ntime 0 t.cap;
  let extend arr fill =
    let narr = Array.make ncap fill in
    Array.blit arr 0 narr 0 t.cap;
    narr
  in
  t.seq <- extend t.seq 0;
  t.gen <- extend t.gen 0;
  t.kind <- extend t.kind kind_free;
  t.a <- extend t.a 0;
  t.b <- extend t.b 0;
  t.thunk <- extend t.thunk dummy_thunk;
  t.next <- extend t.next no_slot;
  t.time <- ntime;
  (* Thread the new slots onto the freelist, low index first. *)
  for s = ncap - 1 downto t.cap do
    t.next.(s) <- t.free_head;
    t.free_head <- s
  done;
  t.cap <- ncap

(* [alloc] deliberately takes no [time]: a float argument would be boxed
   at this (non-inlined) call boundary on every event. Callers store the
   fire time into [t.time] themselves, so the whole schedule path stays
   allocation-free. *)
let[@ocube.zero_alloc] alloc t ~kind ~a ~b thunk =
  if t.free_head = no_slot then grow t;
  let s = t.free_head in
  t.free_head <- t.next.(s);
  t.seq.(s) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.kind.(s) <- kind;
  t.a.(s) <- a;
  t.b.(s) <- b;
  t.thunk.(s) <- thunk;
  t.live <- t.live + 1;
  s

let[@ocube.zero_alloc] id_of t s =
  ((t.gen.(s) land gen_mask) lsl slot_bits) lor s

let[@ocube.zero_alloc] bump_gen t s =
  t.gen.(s) <- (t.gen.(s) + 1) land gen_mask

(* Return a surfaced slot (fired, or a surfaced tombstone) to the
   freelist. The generation of a live slot was already bumped by
   [cancel]; bump here for the fired case so the old timer id dies. *)
let[@ocube.zero_alloc] release t s =
  if t.kind.(s) >= 0 then begin
    t.live <- t.live - 1;
    bump_gen t s
  end;
  t.kind.(s) <- kind_free;
  t.thunk.(s) <- dummy_thunk;
  t.next.(s) <- t.free_head;
  t.free_head <- s

(* O(1) cancellation: validate the generation, then leave a tombstone in
   place — the slot is still linked inside some queue and is reclaimed
   when it surfaces. Returns [false] for stale ids (already fired,
   already cancelled, or recycled). *)
let[@ocube.zero_alloc] cancel t id =
  let s = id land slot_mask in
  if s >= t.cap then false
  else if t.kind.(s) < 0 then false
  else if ((t.gen.(s) land gen_mask) lsl slot_bits) lor s <> id then false
  else begin
    t.kind.(s) <- kind_tombstone;
    t.live <- t.live - 1;
    bump_gen t s;
    true
  end

(* --- slot min-heap ---------------------------------------------------------

   An int binary heap of slots ordered by the arena's [(time, seq)] key:
   the engine's event queue. [push] copies the slot's key into arrays
   kept in heap order beside the slots, so a sift compares keys stored
   next to each other instead of chasing every slot index back into the
   arena's [time]/[seq] arrays. The sifts move a hole. Static arrays:
   push/pop allocate nothing once warm. *)

module Slot_heap = struct
  type heap = {
    arena : t;
    mutable data : int array;
    mutable keys : floatarray;  (* fire time of [data.(i)] *)
    mutable seqs : int array;  (* sequence number of [data.(i)] *)
    mutable size : int;
  }

  let create arena =
    { arena; data = [||]; keys = Float.Array.create 0; seqs = [||]; size = 0 }

  let[@ocube.alloc_ok (* amortised doubling *)] grow h =
    let cap = Array.length h.data in
    let ncap = if cap = 0 then 32 else 2 * cap in
    let nd = Array.make ncap no_slot in
    let nk = Float.Array.create ncap in
    let ns = Array.make ncap 0 in
    Array.blit h.data 0 nd 0 h.size;
    Float.Array.blit h.keys 0 nk 0 h.size;
    Array.blit h.seqs 0 ns 0 h.size;
    h.data <- nd;
    h.keys <- nk;
    h.seqs <- ns

  (* The sifts are [while] loops: the moving key stays in registers, and
     a recursive sift would pass it as a float argument and box it. *)
  let[@ocube.zero_alloc] push h s =
    if h.size = Array.length h.data then grow h;
    let data = h.data and keys = h.keys and seqs = h.seqs in
    let time = Float.Array.get h.arena.time s in
    let seq = h.arena.seq.(s) in
    let i = (ref h.size) [@ocube.alloc_ok (* non-escaping local ref *)] in
    let moving = (ref true) [@ocube.alloc_ok (* non-escaping local ref *)] in
    h.size <- h.size + 1;
    (* Move later-firing parents down into the hole until the key fits. *)
    while !moving && !i > 0 do
      let p = (!i - 1) / 2 in
      let pt = Float.Array.get keys p in
      if time < pt || (time = pt && seq < seqs.(p)) then begin
        data.(!i) <- data.(p);
        Float.Array.set keys !i pt;
        seqs.(!i) <- seqs.(p);
        i := p
      end
      else moving := false
    done;
    data.(!i) <- s;
    Float.Array.set keys !i time;
    seqs.(!i) <- seq

  let[@ocube.zero_alloc] pop h =
    if h.size = 0 then no_slot
    else begin
      let data = h.data and keys = h.keys and seqs = h.seqs in
      let top = data.(0) in
      let n = h.size - 1 in
      h.size <- n;
      if n > 0 then begin
        (* Move the last entry into the hole at the root, first moving
           earlier-firing children up into it. *)
        let s = data.(n) in
        let time = Float.Array.get keys n in
        let seq = seqs.(n) in
        let i = (ref 0) [@ocube.alloc_ok (* non-escaping local ref *)] in
        let moving = (ref true) [@ocube.alloc_ok (* non-escaping local ref *)] in
        while !moving do
          let l = (2 * !i) + 1 in
          if l >= n then moving := false
          else begin
            let r = l + 1 in
            let lt = Float.Array.get keys l in
            let c =
              if r < n then begin
                let rt = Float.Array.get keys r in
                if rt < lt || (rt = lt && seqs.(r) < seqs.(l)) then r else l
              end
              else l
            in
            let ct = Float.Array.get keys c in
            if ct < time || (ct = time && seqs.(c) < seq) then begin
              data.(!i) <- data.(c);
              Float.Array.set keys !i ct;
              seqs.(!i) <- seqs.(c);
              i := c
            end
            else moving := false
          end
        done;
        data.(!i) <- s;
        Float.Array.set keys !i time;
        seqs.(!i) <- seq
      end;
      top
    end
end
