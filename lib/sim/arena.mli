(** Packed event records in a freelist arena.

    The engine ({!Ocube_sim.Engine}) stores its pending events here: one
    slot per event across parallel flat arrays (unboxed [floatarray]
    fire times, int class/payload words, an intrusive freelist link), so
    the hot schedule/fire path allocates nothing once the arrays are
    warm. Generation stamps make cancellation O(1) and timer ids immune
    to slot recycling, and the [live] counter is the exact number of
    pending (scheduled, uncancelled, unfired) events. *)

type t

val create : unit -> t

val live : t -> int
(** Exactly the live events: scheduled, not yet fired, not cancelled. *)

val alloc : t -> kind:int -> a:int -> b:int -> (unit -> unit) -> int
(** Claim a slot (growing the arrays if the freelist is empty), stamp it
    with the next sequence number and return it. [kind] must be [>= 0]
    (a dispatch class); closure events pass their thunk, packed events
    pass a shared dummy. The caller must stamp the fire time with
    {!set_time} before handing the slot to a queue — [alloc] takes no
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

(** {1 Field access} *)

val set_time : t -> int -> float -> unit
(** Stamp a just-allocated slot's fire time (see {!alloc}). *)

val times : t -> floatarray
(** The backing fire-time array, indexed by slot. Hot paths in the
    engine read and write times through this instead of {!set_time}: a
    [floatarray] crosses a module boundary as a pointer, so the access
    never boxes a float even when cross-module inlining is off
    (dev-profile [-opaque]). The array is replaced wholesale when the
    arena grows — fetch it again after any {!alloc}, never cache it
    across one. *)

val kind : t -> int -> int
(** The dispatch class ([>= 0]) of a live slot; negative for tombstones
    and free slots. *)

val payload_a : t -> int -> int

val payload_b : t -> int -> int

val thunk : t -> int -> unit -> unit

val is_tombstone : t -> int -> bool

val dummy_thunk : unit -> unit
(** The shared no-op stored in the thunk slot of packed events. *)

val no_slot : int
(** [-1]: the nil value of slot links and empty heap results. *)

(** {1 Slot heap}

    An int binary min-heap of slots over one arena's [(time, seq)] key:
    earlier time first, equal times in allocation order. This is the
    engine's event queue. *)

module Slot_heap : sig
  type heap

  val create : t -> heap

  val push : heap -> int -> unit

  val pop : heap -> int
  (** [no_slot] when empty. *)
end
