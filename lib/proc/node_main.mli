(** Body of one cluster child process.

    Called on the child side of [fork]; builds the algorithm on
    {!Proc_runtime} and runs the select loop forever; each wake makes
    one read and handles every whole frame buffered. Never returns:
    every path ends in [Unix._exit] (0 on {!Ctrl.Quit} or parent EOF at
    a frame boundary, 2 after an exception, such as an EOF inside a
    frame, which is also reported as a {!Ctrl.Violation} frame
    first).

    The closed-loop wish driver mirrors the simulator runner: one
    outstanding wish at a time, extra {!Ctrl.Wish} frames accumulate as
    backlog and re-issue after the current critical section completes.
    CS durations are [cs] time units, timed on the runtime's clock. *)

val run :
  me:int ->
  n:int ->
  algo:Spec.algo ->
  params:Spec.params ->
  tick:float ->
  delta:float ->
  cs:float ->
  witness:string ->
  sock:Unix.file_descr ->
  unit
(** [witness] is the path of the shared lock file every node try-locks
    for the duration of its critical section. *)
