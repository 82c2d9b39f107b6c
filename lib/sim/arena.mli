(** Packed event records in a freelist arena.

    The engine ({!Ocube_sim.Engine}) stores its pending events here: one
    slot per event across parallel flat arrays (unboxed [floatarray]
    fire times, int class/payload words, an intrusive freelist link), so
    the hot schedule/fire path allocates nothing once the arrays are
    warm. Generation stamps make cancellation O(1) and timer ids immune
    to slot recycling, and the [live] counter is the exact number of
    pending (scheduled, uncancelled, unfired) events. *)

type t = private {
  mutable cap : int;
  mutable time : floatarray;  (** fire time, by slot *)
  mutable seq : int array;  (** allocation order: the FIFO tie-break *)
  mutable gen : int array;
  mutable kind : int array;  (** class [>= 0]; tombstone [-1]; free [-2] *)
  mutable a : int array;
  mutable b : int array;
  mutable thunk : (unit -> unit) array;
  mutable next : int array;
  mutable free_head : int;
  mutable next_seq : int;
  mutable live : int;  (** scheduled, not yet fired, not cancelled *)
}
(** The fields are readable so that the engine's per-event path reads a
    slot without a function call, even when cross-module inlining is off
    (the dev profile's [-opaque]); only this module writes them, apart
    from the fire time a scheduler stamps into [time] (see {!alloc}).
    Every array is replaced wholesale when the arena grows: read the
    field again after any {!alloc}, never keep the array across one. *)

val create : unit -> t

val alloc : t -> kind:int -> a:int -> b:int -> (unit -> unit) -> int
(** Claim a slot (growing the arrays if the freelist is empty), stamp it
    with the next sequence number and return it. [kind] must be [>= 0]
    (a dispatch class); the thunk is handed to the class handler when
    the event fires. The caller must stamp the fire time into
    [time.(slot)] before handing the slot to a queue — [alloc] takes no
    float argument so the schedule path never boxes one. *)

val id_of : t -> int -> int
(** Generation-stamped timer id for a just-allocated slot. *)

val cancel : t -> int -> bool
(** O(1): if the id's generation still matches, turn the slot into a
    tombstone (reclaimed when it surfaces in its queue) and return
    [true]. Stale ids — fired, cancelled, recycled — return [false]. *)

val release : t -> int -> unit
(** Return a surfaced slot (just fired, or a surfacing tombstone) to the
    freelist. Bumps the generation of live slots so their id dies. *)

val no_slot : int
(** [-1]: the nil value of slot links and empty heap results. *)

(** {1 Slot heap}

    An int binary min-heap of slots over one arena's [(time, seq)] key:
    earlier time first, equal times in allocation order. This is the
    engine's event queue. [push] copies the slot's key into the heap, so
    a slot's fire time must be stamped before it is pushed and must not
    change while it is queued. *)

module Slot_heap : sig
  type heap

  val create : t -> heap

  val push : heap -> int -> unit

  val pop : heap -> int
  (** [no_slot] when empty. *)
end
