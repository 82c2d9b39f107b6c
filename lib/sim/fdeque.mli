(** Persistent FIFO deque (batched two-list queue).

    The simulator's wait queues used to be [list]s grown with
    [q @ [x]] — O(n) per append, O(n²) per drained burst. This module is
    the O(1)-amortized replacement: pushes and FIFO pops cost amortized
    constant time, while the occasional positional operations needed by
    the queue-policy ablations ([Lifo], [Random_order]) stay available at
    O(n) worst case.

    The structure is persistent (operations return a new deque), which
    suits both the mutable protocol nodes (field reassignment) and the
    model checker's immutable states. For the model checker, {!canonical}
    rebalances a deque into a normal form such that two deques holding the
    same elements marshal to identical bytes. *)

type 'a t

val empty : 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int
(** O(1). *)

val push_back : 'a t -> 'a -> 'a t
(** Enqueue at the tail. O(1). *)

val push_front : 'a t -> 'a -> 'a t
(** Enqueue at the head. O(1). *)

val pop_front : 'a t -> ('a * 'a t) option
(** Dequeue the oldest element (FIFO). Amortized O(1). *)

val pop_back : 'a t -> ('a * 'a t) option
(** Dequeue the newest element (LIFO). Amortized O(1). *)

val pop_nth : 'a t -> int -> ('a * 'a t) option
(** [pop_nth q k] removes the element at position [k] in FIFO order
    (0 = oldest). O(n). [None] when out of range. *)

val peek_front : 'a t -> 'a option

val exists : ('a -> bool) -> 'a t -> bool

val find_index : ('a -> bool) -> 'a t -> int option
(** Position of the oldest element that satisfies the predicate, in FIFO
    order (0 = oldest). O(n), no allocation but the result. *)

val iter : ('a -> unit) -> 'a t -> unit
(** In FIFO order. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** In FIFO order. *)

val to_list : 'a t -> 'a list
(** In FIFO order (oldest first). *)

val of_list : 'a list -> 'a t
(** The list is taken in FIFO order. The result is canonical. *)

val canonical : 'a t -> 'a t
(** A normal form: equal contents ⇒ structurally equal (hence
    marshal-identical) values. O(n) when the deque is not already
    canonical, O(1) otherwise. *)

val is_canonical : 'a t -> bool
