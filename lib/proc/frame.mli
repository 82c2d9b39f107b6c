(** Length-prefixed framing over byte streams (DESIGN.md §15).

    Every frame is a 4-byte big-endian payload length followed by the
    payload bytes; payloads above {!max_frame} are rejected on both
    sides. {!write} sends one frame in one call; the incremental
    {!Decoder} is the one reader, in the parent's select loop and in
    each node's: one [read] per wake, then every whole frame that is
    buffered. *)

exception Corrupt of string
(** A malformed stream: EOF inside a frame, or a length outside
    [0..max_frame]. *)

exception Oversized of int
(** Raised by {!write} on a payload longer than {!max_frame} — the
    writer's bug, not the stream's. *)

val max_frame : int
(** 1 MiB. Protocol messages are tens of bytes; anything near this
    bound is corruption. *)

val write : Unix.file_descr -> string -> unit
(** Blocking write of one frame; finishes short writes, restarts EINTR.
    Header and payload go in a single [write] call. *)

(** Incremental decoder: feed arbitrary chunks, pull complete frames. *)
module Decoder : sig
  type t

  val create : unit -> t

  val feed : t -> string -> int -> int -> unit
  (** [feed t s pos n] appends [s[pos..pos+n-1]] to the buffer. *)

  val read : t -> Unix.file_descr -> int
  (** One [Unix.read] from the descriptor straight into the buffer
      (restarted on EINTR); returns the byte count, [0] at EOF.
      @raise Unix.Unix_error on any other read error. *)

  val eof : t -> unit
  (** The stream has ended: fine at a frame boundary.
      @raise Corrupt if part of a frame is still buffered (a torn
      frame). *)

  val next : t -> string option
  (** Next complete frame, or [None] if more bytes are needed.
      @raise Corrupt on a bad length prefix. *)

  val buffered : t -> int
  (** Bytes currently buffered (tests use it to assert drain). *)
end
