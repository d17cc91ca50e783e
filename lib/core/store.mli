(** The heap of facts: a mutable, fully indexed set of triples,
    hash-partitioned by source entity across [shards] internal shards
    ({!Lsdb_datalog.Shard}).

    Each shard is one two-tier {!Lsdb_datalog.Index}: a packed frozen
    segment, filled by {!load}, under a mutable delta tier that takes
    {!add}s; {!remove} tombstones frozen facts in place. Matching answers
    every bound-position pattern in O(1) per result and {!count_fast}
    is exact in O(1); source-bound operations touch exactly one shard,
    source-unbound probes fan out across all of them. Enumeration visits
    the shards in order and, within a shard, the frozen segment in
    ascending fact order, then the delta. A deliberately naive linear
    [match_scan] is also exposed so the benchmarks can quantify what the
    indexes buy (experiment B2) — the paper leaves "suitable storage
    strategies" open (§6.2). *)

type t

(** Bound-position pattern; [None] is a wildcard. *)
type pattern = { s : Entity.t option; r : Entity.t option; t : Entity.t option }

val pattern : ?s:Entity.t -> ?r:Entity.t -> ?t:Entity.t -> unit -> pattern

val create : ?size_hint:int -> ?shards:int -> unit -> t

(** Number of internal shards ([>= 1]). *)
val shards : t -> int

(** Facts per shard — the partition balance (shown by [.stats] and
    [.shards]). *)
val shard_cardinals : t -> int array

(** [reshard t n] re-partitions in place: the handle stays valid, every
    fact is re-routed. O(heap). Iteration order changes — callers must
    invalidate anything derived from it (the database bumps its
    generation and drops its closure caches). *)
val reshard : t -> int -> unit

(** [add t fact] is [true] iff the fact was not already present. *)
val add : t -> Fact.t -> bool

(** [remove t fact] is [true] iff the fact was present. *)
val remove : t -> Fact.t -> bool

(** [load t facts] adds every fact (duplicates and facts already stored
    included) and folds each shard's whole content into its frozen
    segment. Facts that ascend strictly are not sorted again, and the
    array may be kept as a segment: the caller must not mutate it
    afterwards. Iteration order changes, as for {!reshard}; it must not
    run while an iteration over the store is in flight. *)
val load : t -> Fact.t array -> unit

val mem : t -> Fact.t -> bool
val cardinal : t -> int
val clear : t -> unit

val iter : (Fact.t -> unit) -> t -> unit
val fold : (Fact.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_seq : t -> Fact.t Seq.t
val to_list : t -> Fact.t list

(** Indexed pattern matching. *)
val match_pattern : t -> pattern -> (Fact.t -> unit) -> unit

val match_list : t -> pattern -> Fact.t list

(** [count_fast t pat] — the exact number of facts matching [pat] in
    O(1) (O(shards) for source-unbound patterns), from the live posting
    lengths; the cheap selectivity probe behind the sharded closure's
    join ordering and the demand-mode degree hints. *)
val count_fast : t -> pattern -> int

(** Unindexed full-scan matching (baseline for B2). Same results as
    [match_pattern], radically different cost profile. *)
val match_scan : t -> pattern -> (Fact.t -> unit) -> unit

(** The store as an {!Lsdb_datalog.Engine.view}: the input of the
    closure's first stratum and of the demand evaluator. Counts are
    {!count_fast}; the view stays valid across {!reshard} and {!clear}. *)
val view : t -> Lsdb_datalog.Engine.view

(** Distinct entities appearing in some fact, each once: the shard
    indexes' {!Lsdb_datalog.Index.occurrences}, deduplicated. O(distinct
    keys); nothing is kept between calls. *)
val active_entities : t -> Entity.t Seq.t

(** Does the entity appear in some stored fact? O(shards), from the
    shard indexes' exact counts: its out-degree in the owner shard, its
    in-degree and relationship count in each shard. *)
val entity_active : t -> Entity.t -> bool

val copy : t -> t
