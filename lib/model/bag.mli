(** The model checker's runtime: a {!Ocube_mutex.Runtime.S} whose network
    is an in-memory bag of in-flight messages and whose clock stands still.

    [send] inserts into a sorted bag of packed messages; nothing is ever
    delivered on its own: the explorer picks a message and calls
    {!deliver}, which hands it to the installed handler. [now] is [0],
    and [set_timer] refuses to arm: a core run with [fault_tolerance =
    false] arms no timer, and the refusal proves it. Only the Section 3
    messages ([Request], [Token]) can be sent; any other raises too.

    A message packs into one int, so the bag is an [int list] whose
    sorted order makes equal bags equal. Fields (node ids below 1024,
    request sequence numbers below [max_seq]): [src], [dst], kind, [who]
    (a request's origin, or a token's lender, [-1] for nil), and the
    request id as the core's image word
    ({!Ocube_mutex.Opencube_algo.Image.rid}, [0] for a token without
    one). *)

type t

type timer

include
  Ocube_mutex.Runtime.S with type t := t and type timer := timer

val create : n:int -> t
(** A bag runtime for [n] nodes (at most 1024), with an empty bag and no
    node failed. *)

val bag : t -> int list
(** The in-flight messages, sorted. *)

val set_bag : t -> int list -> unit
(** Replace the bag; the list must be sorted. *)

val set_failed : t -> int -> bool -> unit
(** Mark a node crashed (the model's fail-stop abstraction). *)

val deliver : t -> keep:bool -> int -> unit
(** [deliver t ~keep m] takes one copy of [m] out of the bag, unless
    [keep] (a seeded duplicating link), and runs the default handler on
    it.
    @raise Invalid_argument if [m] is not in the bag. *)

val insert : int -> int list -> int list
(** Add a message to a sorted bag. *)

val remove : int -> int list -> int list
(** Take one copy of a message out of a sorted bag.
    @raise Invalid_argument if it is not there. *)

(** {1 Packed messages} *)

val max_seq : int
(** Request sequence numbers must stay below this. *)

val of_fields : src:int -> dst:int -> token:bool -> who:int -> rid:int -> int
(** The message with these fields (read back by the accessors below).
    @raise Invalid_argument if [rid]'s sequence number is out of range. *)

val src : int -> int

val dst : int -> int

val is_token : int -> bool

val who : int -> int
(** A request's origin, or a token's lender ([-1]: nil). *)

val rid : int -> int
(** The carried request id, as an image word ([0]: none). *)

val names : int -> int -> bool
(** [names m i]: node [i] is [m]'s source, destination, [who] or request
    id source. *)

val rename : int array -> int -> int
(** [rename perm m] renames every node id inside [m] through [perm]. *)

val pp : Format.formatter -> int -> unit
(** E.g. [0->2 req(2,2#0)] or [2->0 tok(nil,-)]. *)
