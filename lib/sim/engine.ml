(* Discrete-event engine over packed arena slots.

   Events live in an {!Arena} — parallel flat arrays, no per-event heap
   record, no captured closure on the packed path — and a binary heap of
   slot indices orders them by the global [(time, seq)] key.

   Dispatch is class-based and has one path: every class handler
   receives the slot's stored thunk and its two int payload words. Class
   0, registered at creation, just calls the thunk (the general
   [schedule] path); the network registers its delivery and timer
   classes the same way, so a message or a timer arm allocates no
   closure of its own. *)

type timer_id = int

type class_id = int

type hook_id = int

type t = {
  (* One-element floatarray, not a mutable float field: stores into a
     float field of a mixed record box a fresh float every time, and the
     clock is written on every fired event. *)
  clock : floatarray;
  arena : Arena.t;
  queue : Arena.Slot_heap.heap;
  (* Registered handlers receive the event's thunk and payload words. *)
  mutable classes : ((unit -> unit) -> int -> int -> unit) array;
  mutable n_classes : int;
  (* Largest [pending] seen after a fired event: the metrics layer's
     event-queue watermark, kept here so no step hook has to sample it. *)
  mutable pending_max : int;
  (* Registration-ordered: observers (oracles, benchmark counters) must
     fire in a deterministic order. The list is tiny (0-2 hooks), so the
     per-step cost is one match on the common empty case. *)
  mutable hooks : (hook_id * (unit -> unit)) list;
  mutable next_hook : int;
  mutable primary_hook : hook_id option;
}

let call_thunk f (_ : int) (_ : int) = f ()

let register_class t handler =
  let id = t.n_classes in
  if id = Array.length t.classes then begin
    let n = Array.make (2 * id) call_thunk in
    Array.blit t.classes 0 n 0 id;
    t.classes <- n
  end;
  t.classes.(id) <- handler;
  t.n_classes <- id + 1;
  id

let create () =
  let arena = Arena.create () in
  let t =
    {
      clock = Float.Array.make 1 0.0;
      arena;
      queue = Arena.Slot_heap.create arena;
      classes = Array.make 4 call_thunk;
      n_classes = 0;
      pending_max = 0;
      hooks = [];
      next_hook = 0;
      primary_hook = None;
    }
  in
  ignore (register_class t call_thunk);
  t

(* The class [create] registers first: the [schedule] path. *)
let thunk_class : class_id = 0

let add_step_hook t hook =
  let id = t.next_hook in
  t.next_hook <- id + 1;
  t.hooks <- t.hooks @ [ (id, hook) ];
  id

let remove_step_hook t id =
  t.hooks <- List.filter (fun (i, _) -> not (Int.equal i id)) t.hooks

let set_step_hook t hook =
  (match t.primary_hook with
  | Some id -> remove_step_hook t id
  | None -> ());
  t.primary_hook <- Some (add_step_hook t hook)

let clear_step_hook t =
  match t.primary_hook with
  | Some id ->
    remove_step_hook t id;
    t.primary_hook <- None
  | None -> ()

let run_hook t =
  match t.hooks with
  | [] -> ()
  | hooks -> List.iter (fun (_, hook) -> hook ()) hooks

let now t = Float.Array.get t.clock 0

let[@ocube.zero_alloc] enqueue t s = Arena.Slot_heap.push t.queue s

let schedule_at t ~time action =
  if not (Float.is_finite time) then
    invalid_arg "Engine.schedule_at: non-finite time";
  if time < now t then invalid_arg "Engine.schedule_at: time in the past";
  let s = Arena.alloc t.arena ~kind:thunk_class ~a:0 ~b:0 action in
  Float.Array.set t.arena.time s time;
  enqueue t s;
  Arena.id_of t.arena s

let[@ocube.zero_alloc] schedule_packed t ~delay ~cls ~a ~b f =
  if not (Float.is_finite delay) || delay < 0.0 then
    invalid_arg "Engine.schedule: negative or non-finite delay";
  if cls < 0 || cls >= t.n_classes then
    invalid_arg "Engine.schedule_packed: unregistered class";
  let time = Float.Array.get t.clock 0 +. delay in
  if not (Float.is_finite time) then
    invalid_arg "Engine.schedule: fire time overflows";
  let s = Arena.alloc t.arena ~kind:cls ~a ~b f in
  (* Store through the backing array: the sum stays in a register and
     the packed path allocates nothing. *)
  Float.Array.set t.arena.time s time;
  enqueue t s;
  Arena.id_of t.arena s

let schedule t ~delay f = schedule_packed t ~delay ~cls:thunk_class ~a:0 ~b:0 f

let[@ocube.zero_alloc] cancel t id = ignore (Arena.cancel t.arena id)

let pending t = t.arena.live

let pending_max t = t.pending_max

let quiescent t = t.arena.live = 0

(* Pop the next live slot, reclaiming tombstones as they surface. *)
let[@ocube.zero_alloc] rec next_live t =
  let s = Arena.Slot_heap.pop t.queue in
  if s <> Arena.no_slot && t.arena.kind.(s) < 0 then begin
    Arena.release t.arena s;
    next_live t
  end
  else s

(* Advance the clock and dispatch a popped slot. The slot is released
   before the handler runs: the handler may schedule new events (which
   recycle it immediately — the arena stays as small as the peak live
   count) and a [cancel] of the fired id inside the handler is a
   harmless stale-id no-op. Once the handler returns, the queue depth
   is folded into the watermark. *)
let[@ocube.zero_alloc] fire t s =
  let arena = t.arena in
  Float.Array.set t.clock 0 (Float.Array.get arena.time s);
  let kind = arena.kind.(s) in
  let a = arena.a.(s) in
  let b = arena.b.(s) in
  let f =
    arena.thunk.(s)
    [@ocube.alloc_ok
      (* flat array read; the arrow in the result type is the stored
         thunk itself, not an un-applied parameter *)]
  in
  Arena.release arena s;
  (t.classes.(kind) f a b)
  [@ocube.alloc_ok
    (* dynamic dispatch into the event's own handler: the packed-path
       class handlers are proven zero-alloc where they are defined *)];
  if arena.live > t.pending_max then t.pending_max <- arena.live

let step t =
  let s = next_live t in
  if s = Arena.no_slot then false
  else begin
    fire t s;
    run_hook t;
    true
  end

let run ?(until = infinity) ?(max_steps = max_int) t =
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < max_steps do
    let s = next_live t in
    if s = Arena.no_slot then continue := false
    else if Float.Array.get t.arena.time s > until then begin
      (* Put it back: the horizon was reached. It keeps its sequence
         number, so its place among same-time events is unchanged. *)
      enqueue t s;
      Float.Array.set t.clock 0 until;
      continue := false
    end
    else begin
      fire t s;
      run_hook t;
      incr steps
    end
  done
