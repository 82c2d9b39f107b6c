(* Packed event records in a freelist arena.

   One simulation event = one slot across parallel flat arrays: fire
   time (unboxed floatarray), a strictly increasing sequence number (the
   FIFO tie-break for equal times), a generation stamp (validates timer
   ids in O(1)), an int-encoded class plus two int payload words, and an
   intrusive [next] link threading free slots onto the freelist without
   a single heap allocation. Closure events keep their thunk in a side
   array whose free slots hold a shared dummy.

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

let live t = t.live

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
   fire time through [set_time], which is small enough to inline, so the
   whole schedule path stays allocation-free. *)
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

(* True iff [s1] fires strictly before [s2]: earlier time, or same time
   and scheduled earlier. *)
let[@ocube.zero_alloc] before t s1 s2 =
  let t1 = Float.Array.get t.time s1 and t2 = Float.Array.get t.time s2 in
  if t1 < t2 then true else if t1 > t2 then false else t.seq.(s1) < t.seq.(s2)

let[@ocube.zero_alloc] set_time t s v = Float.Array.set t.time s v

(* Boxing escape hatch: callers in other modules read/write fire times
   through this array so no float value crosses a (non-inlined) module
   boundary. Replaced wholesale by [grow] — never cache across alloc. *)
let times t = t.time

let[@ocube.zero_alloc] kind t s = t.kind.(s)

let payload_a t s = t.a.(s)

let payload_b t s = t.b.(s)

let thunk t s = t.thunk.(s)

let is_tombstone t s = t.kind.(s) = kind_tombstone

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

(* --- slot min-heaps -------------------------------------------------------

   An int binary heap ordered by the arena's [(time, seq)] key: the
   engine's event queue. Static int arrays: push/pop allocate nothing
   once warm. *)

module Slot_heap = struct
  type heap = {
    arena : t;
    mutable data : int array;
    mutable size : int;
  }

  let create arena = { arena; data = [||]; size = 0 }

  (* Fill the hole at [i] with slot [s], first moving later-firing
     parents down into it. *)
  let[@ocube.zero_alloc] rec sift_up h s i =
    if i = 0 then h.data.(0) <- s
    else begin
      let parent = (i - 1) / 2 in
      let ps = h.data.(parent) in
      if before h.arena s ps then begin
        h.data.(i) <- ps;
        sift_up h s parent
      end
      else h.data.(i) <- s
    end

  (* Fill the hole at [i] with slot [s], first moving earlier-firing
     children up into it. *)
  let[@ocube.zero_alloc] rec sift_down h s i =
    let l = (2 * i) + 1 in
    if l >= h.size then h.data.(i) <- s
    else begin
      let r = l + 1 in
      let c =
        if r < h.size && before h.arena h.data.(r) h.data.(l) then r else l
      in
      let cs = h.data.(c) in
      if before h.arena cs s then begin
        h.data.(i) <- cs;
        sift_down h s c
      end
      else h.data.(i) <- s
    end

  let[@ocube.zero_alloc] push h s =
    let cap = Array.length h.data in
    if h.size = cap then
      (let ncap = if cap = 0 then 32 else 2 * cap in
       let nd = Array.make ncap no_slot in
       Array.blit h.data 0 nd 0 h.size;
       h.data <- nd)
      [@ocube.alloc_ok (* amortised doubling *)];
    h.size <- h.size + 1;
    sift_up h s (h.size - 1)

  let[@ocube.zero_alloc] pop h =
    if h.size = 0 then no_slot
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then sift_down h h.data.(h.size) 0;
      top
    end
end
