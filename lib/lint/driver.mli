(** Discovering [.cmt] files and running the full lint pass.

    The driver is pure with respect to output: it returns diagnostics and
    rendered text, and the executable ([bin/oclint]) decides where to
    print. *)

val find_cmts : root:string -> dirs:string list -> string list
(** Recursively collect [*.cmt] files under [root/dir] for each [dir]
    (typically the [_build/default/lib], [bin] and [test] trees),
    sorted. *)

type report = {
  findings : Diag.t list;
      (** allowlist-filtered, sorted, deduplicated diagnostics *)
  suppressed : int;  (** findings removed by the allowlist *)
  stale : Allowlist.entry list;
      (** allowlist entries that suppressed nothing in this run *)
  unjustified : Allowlist.entry list;
      (** allowlist entries with an empty justification note *)
}

val allowlist_report :
  Allowlist.t -> Diag.t list -> Allowlist.entry list * Allowlist.entry list
(** [(stale, unjustified)] for an allowlist against pre-filter
    diagnostics; exposed pure so the policy is unit-testable. *)

val analyse :
  ?allowlist:Allowlist.t ->
  ?fixture:bool ->
  root:string ->
  dirs:string list ->
  unit ->
  (report, string) result
(** Load every [.cmt], run the per-module {!Cmt_walk.check_structure}
    pass plus the [mli-coverage] file check, extract the {!Callgraph}
    and run the {!Interproc} fixpoints over the whole set, then filter
    through the allowlist. Diagnostics are sorted by (file, line, rule,
    message) regardless of [.cmt] enumeration order. [fixture] (default
    [false]) lifts the repo path scoping so fixture corpora exercise
    every rule; outside fixture mode the [test/lint/fixtures] corpus is
    skipped. [Error] is reserved for environment problems (unreadable
    [.cmt], bad root), not findings. *)

val run :
  ?allowlist:Allowlist.t ->
  ?fixture:bool ->
  root:string ->
  dirs:string list ->
  unit ->
  (Diag.t list, string) result
(** {!analyse} projected to its findings. *)

val render : Diag.t list -> string
(** One [file:line rule-id message] per line, in {!Diag.compare} order,
    with a trailing summary line omitted: the output is exactly the golden
    format. *)

val render_allowlist_report : report -> string
(** One line per stale or unjustified allowlist entry. *)

val main :
  ?root:string ->
  ?allowlist_file:string ->
  ?fixture:bool ->
  ?check_allowlist:bool ->
  dirs:string list ->
  unit ->
  string * int
(** End-to-end run for the CLIs: returns the text to print (diagnostics or
    an error message) and the process exit code — 0 clean, 1 findings
    (or, with [check_allowlist], stale/unjustified allowlist entries),
    2 environment error. *)
