(** A domain-safe metrics registry: named counters, gauges and
    fixed-bucket latency histograms, with Prometheus-style text
    exposition and a JSON dump.

    Every cell is an [Atomic.t]; updates from any domain are safe and
    lock-free. Registration (find-or-create by name + label set) takes a
    mutex, so instrumented modules register their handles once at module
    initialization and the hot paths touch atomics only.

    The overhead contract: counter and gauge updates are a single atomic
    read-modify-write and are {e always} applied (keeping cheap
    statistics such as cache hit rates available without opt-in), while
    everything that needs a clock — {!time}, explicit latency
    measurements guarded by {!enabled} — is skipped entirely unless
    {!set_enabled}[ true] has been called. Instrumentation never changes
    the observable behavior of the instrumented code. *)

type t
(** A registry. *)

type counter
(** Monotonically increasing integer. *)

type gauge
(** Integer that can move both ways. *)

type histogram
(** Fixed-bucket distribution of seconds, with total count and sum. *)

val create : unit -> t

val default : t
(** The process-wide registry every built-in instrumentation site uses. *)

(** {1 The global enable switch} *)

val set_enabled : bool -> unit
(** Turn timed instrumentation on or off (default: off). Counters and
    gauges count regardless; histograms fed through {!time} only record
    while enabled. *)

val enabled : unit -> bool

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]) — the clock used by
    {!time}, exported so call sites measuring across scopes agree with
    it. *)

(** {1 Registration}

    Find-or-create: registering the same name, label set and kind twice
    returns the same handle; the same name with a different kind raises
    [Invalid_argument]. Labels are sorted internally, so label order
    does not create distinct metrics. *)

val counter :
  ?registry:t -> ?help:string -> ?labels:(string * string) list -> string -> counter

val gauge :
  ?registry:t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  ?registry:t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  string ->
  histogram
(** [buckets] are upper bounds in seconds, strictly increasing; an
    implicit [+Inf] bucket is always appended. Defaults to
    {!default_buckets}. *)

val default_buckets : float array
(** [1µs, 10µs, 100µs, 1ms, 10ms, 100ms, 1s, 10s] — latency-shaped. *)

(** {1 Updates} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> int -> unit
val gauge_add : gauge -> int -> unit

val observe : histogram -> float -> unit
(** Record one observation, in seconds. Always applied (the caller
    already paid for the measurement). *)

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] runs [f], recording its wall-clock duration into [h] —
    unless {!enabled} is false, in which case it is exactly [f ()] with
    no clock read. *)

(** {1 Reading} *)

val counter_value : counter -> int
val gauge_value : gauge -> int
val histogram_count : histogram -> int

val histogram_sum : histogram -> float
(** Sum of observations, seconds (internally nanosecond-integer). *)

val bucket_counts : histogram -> (float * int) list
(** Cumulative counts per upper bound, ending with [(infinity, count)] —
    the Prometheus [le] convention. *)

(** {1 Exposition} *)

val sample_gc : ?registry:t -> unit -> unit
(** Refresh the GC gauges ([lsdb_gc_minor_allocated_bytes_total],
    [lsdb_gc_major_heap_bytes], [lsdb_gc_major_collections_total]) from
    [Gc.quick_stat]. Called automatically by {!expose} and {!dump_json};
    benches call it directly at record time to gate allocation rate. *)

val expose : ?registry:t -> unit -> string
(** Prometheus text format, version 0.0.4: [# HELP]/[# TYPE] per metric
    family, histograms as [_bucket{le=...}]/[_sum]/[_count]. Families
    and label sets are sorted, so output is deterministic. *)

val dump_json : ?registry:t -> unit -> string
(** The same data as one JSON object: [{"metrics": [...]}]. *)

val reset : ?registry:t -> unit -> unit
(** Zero every cell (handles stay valid). For tests and overhead
    baselines. *)
