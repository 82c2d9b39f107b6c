(** Metrics registry: typed counters, gauges and value histograms keyed
    by [(metric, node, algorithm)].

    A registry belongs to one run (a simulation environment or a
    process cluster): the node dimension is fixed at creation, the
    algorithm label is attached once the algorithm is known. Handles returned at registration time make the hot
    path one boolean load plus one array write — no lookup, and {e zero}
    work or allocation while the registry is disabled. Values recorded
    while disabled are dropped outright, so a disable/enable cycle can
    never leak state into a later measurement window.

    {!snapshot} freezes the registry into plain data; snapshots
    {!diff} (measurement windows), {!merge} (per-domain registries from
    {!Ocube_par.Pool} fan-outs — commutative and associative, so the
    reduction order cannot change the result) and feed the exporters in
    {!Export}. *)

type t

val create : ?enabled:bool -> n:int -> unit -> t
(** A registry for nodes [0 .. n-1]. [enabled] defaults to [true]. *)

val size : t -> int

val enabled : t -> bool

val set_enabled : t -> bool -> unit

val algo : t -> string

val set_algo : t -> string -> unit
(** Attach the algorithm label carried by every exported sample. *)

val reset : t -> unit
(** Zero every registered metric (registrations are kept). *)

(** {1 Metric handles}

    Metric names must be unique within a registry
    (@raise Invalid_argument otherwise). *)

type counter

val counter : t -> name:string -> help:string -> counter

val incr : counter -> node:int -> unit

val add : counter -> node:int -> int -> unit

val counter_value : counter -> node:int -> int

type gauge

val gauge : t -> name:string -> help:string -> gauge

val set : gauge -> node:int -> float -> unit

val set_max : gauge -> node:int -> float -> unit
(** Watermark update: keep the maximum of the current and new value. *)

val gauge_value : gauge -> node:int -> float

type hist

val hist : t -> name:string -> help:string -> hist
(** Integer-valued histogram per node ({!Ocube_stats.Histogram}).
    Latencies are recorded in scaled integer units chosen by the caller
    (the recorder uses milli-time-units). *)

val observe : hist -> node:int -> int -> unit

val hist_value : hist -> node:int -> Ocube_stats.Histogram.t

(** {1 Snapshots} *)

type sdata =
  | S_counter of int array
  | S_gauge of float array
  | S_hist of (int * int) list array
      (** Per node, the histogram as sorted [(value, count)] pairs. *)

type srow = { name : string; help : string; data : sdata }

type snapshot = { s_algo : string; s_n : int; rows : srow list }
(** Plain frozen data; [rows] is sorted by metric name, so equal
    registries produce structurally equal (and byte-identically
    exportable) snapshots. *)

val snapshot : t -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** Counters and histograms add, gauges take the pointwise maximum
    (every gauge in the repo is a watermark). Commutative/associative.
    @raise Invalid_argument if the two snapshots have different node
    counts or metric sets. *)

val diff : later:snapshot -> earlier:snapshot -> snapshot
(** Per-window view: counters and histogram counts subtract, gauges keep
    the later value. @raise Invalid_argument on mismatched shapes or a
    non-monotone histogram pair. *)

val equal : snapshot -> snapshot -> bool
(** Structural equality; gauge floats compare by bits. *)

val find_row : snapshot -> string -> srow option

val total_of : snapshot -> string -> int
(** Sum of a counter over all nodes.
    @raise Invalid_argument if absent or not a counter. *)

val hist_total : snapshot -> string -> Ocube_stats.Histogram.t
(** All nodes' observations of one histogram metric merged. *)
