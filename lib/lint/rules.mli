(** The rule catalogue and per-rule configuration.

    Scoping policy (repo mode; fixture mode treats every file as library
    code):

    - [determinism]: library code may not read ambient time or global
      randomness; all randomness flows through [lib/sim/rng.ml]. Applies
      to [lib/] (minus the RNG itself) and [bin/].
    - [no-poly-compare]: structural [=]/[compare]/[List.mem]/... applied
      at a type whose runtime representation is not canonical (functional
      queues, protocol messages, node records, type variables). Applies to
      [lib/] and [bin/].
    - [no-marshal]: [Marshal] has no place in [lib/]; the packed
      [Spec.encode] codec exists precisely to avoid it.
    - [handler-totality]: a [match]/[function] over the protocol message
      type must name every constructor; no [_] or binding catch-all arm.
    - [io-hygiene]: no direct stdout/stderr printing and no [exit] in
      [lib/]; output flows through returned strings or records.
    - [mli-coverage]: every [.ml] in [lib/] has a [.mli].

    Interprocedural rules (fixpoints over the {!Callgraph}):

    - [determinism-taint]: any function from which [Unix.gettimeofday],
      [Random.*] or [Sys.time] is reachable through the call graph is
      tainted; every call site of a tainted function outside
      [lib/sim/rng.ml] is reported with the full call chain.
    - [domain-race]: a closure passed to [Ocube_par.Pool.map_*] /
      [parallel_for] must not write a captured mutable location unless
      the written index derives from the stripe parameter, and must not
      reach a writer of module-global mutable state.
    - [zero-alloc]: a [[@ocube.zero_alloc]] function must not reach any
      allocating construct; [[@ocube.alloc_ok]] is the audited escape
      hatch at definition or expression granularity. *)

type id =
  | Determinism
  | No_poly_compare
  | No_marshal
  | Handler_totality
  | Io_hygiene
  | Mli_coverage
  | Determinism_taint
  | Domain_race
  | Zero_alloc

val id_to_string : id -> string

val all : (id * string) list
(** Every rule with a one-line summary, in catalogue order. *)

val is_rule_id : string -> bool
(** Is this string the id of a known rule (or the wildcard ["*"])? *)

val determinism_banned : string list
(** Banned value paths (normalised, [Stdlib.] stripped). Entries ending in
    ['.'] are prefix bans (e.g. ["Random."]). *)

val marshal_banned : string list

val io_banned : string list

val poly_compare_functions : string list
(** Structural-comparison entry points whose instantiation type is
    inspected. *)

val safe_named_types : string list
(** Named types (normalised path suffixes) with a canonical runtime
    representation, for which structural comparison is deterministic and
    correct: flat integer records like [Types.request_id]. *)

val protocol_types : string list
(** Path suffixes identifying the protocol message type for
    [handler-totality]. *)

val rng_module : string
(** The one library file allowed to own randomness. *)

val pool_functions : string list
(** Normalised path suffixes of the [lib/par] fan-out entry points whose
    closure arguments the [domain-race] rule analyses. *)

val raisers : string list
(** Never-returning functions; applications headed by one are error
    paths the zero-alloc proof skips entirely. *)

val nonalloc_externals : string list
(** External functions known not to allocate; anything else reached
    from a [[@ocube.zero_alloc]] function is conservatively flagged. *)

val alloc_operators : string list
(** Operator-shaped externals that do allocate ([^], [@], [^^], [ref]);
    all other operators are allocation-free. *)

val write_functions : (string * [ `Indexed | `Opaque | `Opaque_snd ]) list
(** Mutable-write entry points for the capture analysis. [`Indexed]
    writes expose the written index as their second positional argument
    (stripe evidence is checked against it); [`Opaque] writes do not;
    [`Opaque_snd] writes take the written container as their second
    argument ([Queue.push]/[add], [Stack.push]). *)

val zero_alloc_attr : string
(** ["ocube.zero_alloc"] — requests a static no-allocation proof. *)

val alloc_ok_attr : string
(** ["ocube.alloc_ok"] — audited allocation exemption, at definition or
    expression granularity. *)
