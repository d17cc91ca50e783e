(** A loosely structured database: a set of facts and a set of rules whose
    closure is meant to be free of contradictions (§2.6).

    The database owns the symbol table, the fact heap, the relationship
    classification, the rule set (builtins pre-included, §6.1
    [include]/[exclude] supported) and a lazily maintained closure cache.
    Fact insertions and removals maintain the cache incrementally
    (semi-naive extension, delete/rederive retraction); rule toggles and
    reclassifications fall back to a recompute only when the change
    provably affects the closure's content. Contradiction checking itself
    lives in {!Integrity} so that callers choose when to pay for it. *)

type t

(** [create ()] — a fresh database containing only the axiom facts
    [(↔,↔,↔)] and [(⊥,↔,⊥)] (§3.4, §3.5), with every builtin rule of §3
    enabled and composition disabled ([limit 1]).

    [shards] hash-partitions the fact heap by source entity
    ({!Lsdb_datalog.Shard}). The closure does not follow the partition:
    each of its strata owns a packed index of its input at every shard
    count ({!Closure.compute}). Query results are identical at every
    shard count; enumeration order is not. Default [1] — the classic
    single heap. *)
val create : ?max_facts:int -> ?shards:int -> unit -> t

(** Current shard count of the fact heap ([>= 1]). *)
val shards : t -> int

(** [set_shards t n] re-partitions the heap in place ([O(heap)]; [n] is
    clamped to at least 1). The fact set does not change, so the closure
    and demand caches stay and the generation is not bumped. No-op when
    [n] equals the current count. *)
val set_shards : t -> int -> unit

(** The two axiom facts seeded into every database: [(↔,↔,↔)] and
    [(⊥,↔,⊥)] (§3.4, §3.5). *)
val axiom_facts : Fact.t list

val symtab : t -> Symtab.t
val store : t -> Store.t
val relclass : t -> Relclass.t

(** A process-unique id for this database — a stable hash key for
    external per-database caches (the match layer's answer cache). *)
val uid : t -> int

(** Monotone mutation counter: bumped by every change to the fact set,
    rules or classifications. Anything derived purely from the database
    contents (cached answers) is valid as long as the generation it was
    computed at is still current. *)
val generation : t -> int

(** {1 Multicore execution} *)

(** [set_pool t (Some pool)] makes closure computation shard its
    semi-naive rounds across [pool]'s domains, and makes
    [Probing.probe] evaluate retraction waves in parallel by default.
    Results are byte-identical to the sequential path. The database does
    not own the pool: callers shut it down. *)
val set_pool : t -> Lsdb_exec.Pool.t option -> unit

val pool : t -> Lsdb_exec.Pool.t option

(** Force the closure (folding pending inserts) and its lazy caches so
    that evaluation afterwards is mutation-free: required from a single
    domain before fanning read-only query evaluation out across domains.
    [Probing.probe] calls this itself before parallel waves. *)
val prepare_readers : t -> unit

(** {1 Query governor}

    A per-query {!Lsdb_exec.Governor.t} (deadline, fact/work/wave
    budgets, cancellation token) threaded through every long-running
    evaluation loop. Install one before a query, clear it after: a trip
    is sticky, and the [set_governor] transition is what discards any
    partial state the tripped query left behind (partial closure cache,
    poisoned demand memos), bumping {!generation} so external caches
    filled from partial answers miss. When the installed governor never
    trips, results are byte-identical to ungoverned evaluation and the
    transition costs two field writes. *)

val set_governor : t -> Lsdb_exec.Governor.t option -> unit
val governor : t -> Lsdb_exec.Governor.t option

(** The installed governor's sticky trip reason, if any — how callers
    detect that answers just computed are partial. *)
val governor_tripped : t -> Lsdb_exec.Governor.reason option

(** Is the cached closure a (sound) subset left behind by a tripped
    governor? *)
val closure_partial : t -> bool

(** {1 Entities} *)

(** Intern (or look up) an entity by name. *)
val entity : t -> string -> Entity.t

val find_entity : t -> string -> Entity.t option
val entity_name : t -> Entity.t -> string
val entity_count : t -> int

(** Declare a relationship to be a class relationship (§2.2), e.g.
    TOTAL-NUMBER. A declaration that changes the classification of an
    entity active in the closure invalidates the cache; restating the
    current classification, or reclassifying an entity the closure never
    mentions, costs nothing. *)
val declare_class_relationship : t -> Entity.t -> unit

val declare_individual_relationship : t -> Entity.t -> unit
val is_class_relationship : t -> Entity.t -> bool

(** {1 Facts} *)

(** [insert t fact] — [true] iff new. The cached closure is extended
    incrementally on next access. *)
val insert : t -> Fact.t -> bool

(** [insert_names t s r tgt] interns the names and inserts. *)
val insert_names : t -> string -> string -> string -> bool

val insert_all : t -> Fact.t list -> unit

(** [load t facts] adds every fact in one bulk load: each heap shard's
    content, the new facts included, is folded into one packed segment
    ({!Store.load}; the array may be kept, so it must not be mutated
    afterwards). The closure caches are dropped and the generation is
    bumped once. The snapshot decoder opens a database this way. *)
val load : t -> Fact.t array -> unit

(** [remove t fact] — [true] iff present (only base facts can be removed;
    derived facts disappear when their premises do — incrementally, by
    delete/rederive on next access; a removed base fact that is still
    derivable stays in the closure as a derived fact). *)
val remove : t -> Fact.t -> bool

val remove_names : t -> string -> string -> string -> bool

(** Base facts only (no inference). *)
val mem_base : t -> Fact.t -> bool

val base_cardinal : t -> int

(** {1 Rules} *)

(** [add_rule t rule] registers (and enables) a rule; replaces any rule of
    the same name. The closure cache survives when the rule provably adds
    nothing (the closure is already closed under it); a replacement
    always invalidates. *)
val add_rule : t -> Rule.t -> unit

(** [exclude t name] disables a rule without forgetting it (§6.1). [true]
    iff the rule exists. The closure cache survives when the rule
    contributed no recorded derivation ({!Closure.rule_counts}). *)
val exclude : t -> string -> bool

(** [include_rule t name] re-enables a rule (§6.1). *)
val include_rule : t -> string -> bool

(** [remove_rule t name] forgets a rule entirely. [true] iff it existed. *)
val remove_rule : t -> string -> bool

val rule_enabled : t -> string -> bool

(** All registered rules with their enabled flag. *)
val rules : t -> (Rule.t * bool) list

val enabled_rules : t -> Rule.t list

(** {1 Composition (§3.7, §6.1)} *)

(** [set_limit t n] sets the maximal composition-chain length to [n]
    ([limit(n)]): 1 disables composition, 2 composes base facts only, etc.
    Raises [Invalid_argument] for [n < 1]. *)
val set_limit : t -> int -> unit

val limit : t -> int

(** {1 Closure} *)

exception Diverged of int

(** The cached closure, recomputed if a mutation occurred. *)
val closure : t -> Closure.t

(** [mem t fact] — membership in the closure (stored or inferred).
    Mode-aware: see {!closure_mode}. *)
val mem : t -> Fact.t -> bool

(** {1 Incremental integrity checks}

    The §2.4 rules have no negation, so a removal never creates a
    contradiction and every new one involves a fact the closure gained.
    The database therefore keeps, next to the eager closure cache, the
    facts the cache gained since {!Integrity} last found it clean. It
    forgets them when the cache is recomputed, a rule or classification
    changes, a governor trips while the cache is maintained, a check
    finds violations, or they come to outnumber the closure's facts (a
    full scan is then no dearer). *)

(** Forces the eager closure; then the facts it gained since the last
    clean check (possibly removed again since), or [None] when no clean
    check is on record — the caller must scan the whole closure. *)
val unchecked_facts : t -> Fact.t list option

(** [note_check t ~clean] records the outcome of a check of the current
    eager closure: [clean] starts a fresh record, otherwise the record is
    forgotten. *)
val note_check : t -> clean:bool -> unit

(** {1 Closure mode (demand-driven evaluation)}

    [Eager] (the default) materializes the whole closure up front and
    serves every goal from it. [Demand] routes the hot paths (match
    layer, eval, probing, integrity, composition, broadness) through a
    magic-sets state ({!Lsdb_datalog.Magic}) that derives only the cone
    of facts each goal can touch, memoizing demanded cones for the
    lifetime of the heap and maintaining them incrementally under
    insertion (semi-naive) and retraction (delete/rederive). Rule or
    classification changes rebuild the demand state from scratch.

    Answer {e sets} are identical in both modes (the eager closure is the
    retained oracle; see DESIGN.md); enumeration {e order} may differ —
    demand answers arrive in [Fact.compare] order. Code that calls
    {!closure} directly in demand mode (explain, save, …) transparently
    falls back to forcing the eager closure. *)

type closure_mode = Eager | Demand

(** Switching modes keeps both caches but bumps the generation, so
    order-sensitive external caches miss. *)
val set_closure_mode : t -> closure_mode -> unit

val closure_mode : t -> closure_mode

(** [closure_match t pat f] — every closure fact matching [pat], through
    the current mode. *)
val closure_match : t -> Store.pattern -> (Fact.t -> unit) -> unit

val closure_mem : t -> Fact.t -> bool

(** Upper bound on the facts {!closure_match} would enumerate — a join
    planning heuristic (eager: exact posting lengths; demand: base plus
    already-derived cones, never deriving). *)
val count_hint : t -> Store.pattern -> int

val out_degree_hint : t -> Entity.t -> int
val in_degree_hint : t -> Entity.t -> int

(** [intersect_join t h1 h2 emit] — every entity that fills both hinges'
    free position (see {!Lsdb_datalog.Index.hinge}), exactly once each,
    in unspecified order. An eager closure gallops its index's packed
    frozen postings plus delta cells, at every shard count. Demand mode
    runs a hash semi-join over {!closure_match}, enumerating the smaller
    hinge (by {!count_hint}) into a set and probing with the larger, and
    so issues exactly two pattern demands. *)
val intersect_join :
  t ->
  Lsdb_datalog.Index.hinge ->
  Lsdb_datalog.Index.hinge ->
  (Entity.t -> unit) ->
  unit

(** [intersect_exists t h1 h2] — does any entity fill both hinges? Early
    exit on the first hit. *)
val intersect_exists :
  t -> Lsdb_datalog.Index.hinge -> Lsdb_datalog.Index.hinge -> bool

(** Frozen/delta posting-tier sizes summed over whatever closure/demand
    caches currently exist (never forces a computation). *)
val tier_stats : t -> Lsdb_datalog.Index.tier_stats

(** Entities occurring in some closure fact (the paper's active domain).
    In demand mode this is computed exactly without materializing the
    closure: base actives plus rule-head constants verified present. *)
val active_domain : t -> Entity.t Seq.t

val entity_in_closure : t -> Entity.t -> bool

(** Statistics of the demand state, if one exists (forced into existence
    when the mode is [Demand]). *)
val demand_stats : t -> Lsdb_datalog.Magic.stats option

(** Force invalidation (rarely needed; mutations do it automatically). *)
val invalidate : t -> unit

(** Number of full closure recomputations so far (for tests/benches).
    Neither insertions nor removals trigger recomputation: the cached
    closure is maintained incrementally in both directions. Rule and
    classification changes recompute only when they provably affect the
    closure's content. *)
val closure_computations : t -> int

(** Number of incremental extensions applied to the cached closure. *)
val closure_extensions : t -> int

(** Number of incremental retractions (delete/rederive passes) applied to
    the cached closure. *)
val closure_retractions : t -> int

(** Edges in the closure's support indexes (premise ↦ dependents); [0]
    with no cache or before the first retraction builds them. *)
val support_size : t -> int

(** {1 Bulk access} *)

val facts : t -> Fact.t list

(** A deep copy sharing nothing with the original. *)
val copy : t -> t

