(** The closure of the fact heap under the database's rules (§2.6): base
    facts plus everything derivable, with per-fact provenance.

    Mathematical facts (§3.6), hierarchy extremes and reflexive [⊑] are
    *not* in the closure — they are virtual and answered by
    {!Virtual_facts}; composition facts (§3.7) are enumerated lazily by
    {!Composition}. The {!Match} layer fuses all three views. *)

type t

exception Diverged of int
(** The rule set generated more than [max_facts] facts. *)

(** [compute ?max_facts ?staged_rules ~rules store] runs the semi-naive
    engine over the current contents of [store]. [rules] must already be
    compiled against the owning database's relationship classification.

    [staged_rules] run first, to their own fixpoint over the base facts
    only; the main [rules] then close over base ∪ staged consequences.
    This stratification exists for inversion (§3.4): the paper's facts
    read "every instance of the source relates to {e some} instance of
    the target" (§3.2's footnote), and inverting a fact whose endpoint
    was already generalized would silently turn that ∃ into a ∀ — an
    unsoundness in the rules as printed that only shows up when they are
    actually executed (see DESIGN.md).

    Both strata are {!Lsdb_datalog.Stratum} evaluations. Each bulk-loads
    its input (the stage: the store; the main stratum: the stage's index)
    into its own packed index and derives into it, so every read hits one
    index, whatever the store's shard count ({!Store.shards}). Content is
    identical at every shard count; enumeration and derivation order are
    not, since the store enumerates shard-major (compare canonically
    sorted). [max_facts] bounds each stratum for this closure's lifetime,
    maintenance included. *)
val compute :
  ?max_facts:int ->
  ?pool:Lsdb_exec.Pool.t ->
  ?gov:Lsdb_exec.Governor.t ->
  ?staged_rules:Lsdb_datalog.Rule.t list ->
  rules:Lsdb_datalog.Rule.t list ->
  Store.t ->
  t

(** [extend closure facts] incrementally maintains the closure under
    insertion of base [facts] (already added to the store): the
    semi-naive fixpoint continues from the new triples through the same
    strata as [compute], reusing everything already derived. The closure
    is updated in place; the result lists the facts it did not hold
    before — new base facts, then derived ones in derivation order — the
    only facts that can take part in a contradiction the closure lacked
    ({!Integrity}). A fact asserted as base that
    the closure had previously derived is demoted to base (its recorded
    derivation is dropped), so that derived-ness always matches a
    from-scratch recompute.

    With [?pool] (here and in {!compute}/{!retract}), each semi-naive
    round fans out across the pool's domains; results are byte-identical
    to the sequential path for any pool size.

    With [?gov] (here and in {!compute}/{!retract}), the engine
    checkpoints the governor; on a trip the closure holds a consistent
    subset of the true fixpoint and must not be reused as if complete
    (see {!Lsdb_datalog.Stratum}). *)
val extend :
  ?pool:Lsdb_exec.Pool.t ->
  ?gov:Lsdb_exec.Governor.t ->
  t ->
  Fact.t list ->
  Fact.t list

(** [retract closure facts] incrementally maintains the closure under
    deletion of base [facts] (already removed from the store), via
    delete/rederive ({!Lsdb_datalog.Stratum.retract}) run per stratum:
    the stage stratum is retracted first and the facts it loses become
    the deletions of the main stratum. The resulting fact set (and which
    facts count as derived) is identical to a from-scratch {!compute}
    over the surviving store; a retracted base fact that is still
    derivable stays in the closure, as a derived fact. *)
val retract :
  ?pool:Lsdb_exec.Pool.t ->
  ?gov:Lsdb_exec.Governor.t ->
  t ->
  Fact.t list ->
  t

(** Total number of edges in the strata's support indexes (premise ↦
    dependents); [0] until the first retraction forces them. *)
val support_size : t -> int

(** [set_rules t ~staged_rules ~rules] swaps the compiled rule set used
    by future {!extend}/{!retract} calls. Only sound when the caller has
    established that the closure's current content is what [compute]
    under the new rule set would produce — e.g. a disabled rule with no
    recorded derivations ({!rule_counts}), or an enabled rule the closure
    is already {!closed_under}. A closure computed without staged rules
    has no stage stratum, so staged rules set later are not applied: the
    caller recomputes instead, as {!Database} does when inversion is
    enabled. *)
val set_rules :
  t -> staged_rules:Lsdb_datalog.Rule.t list -> rules:Lsdb_datalog.Rule.t list -> unit

(** [closed_under t rules] — does one application round of [rules] over
    the closure produce nothing new? *)
val closed_under : t -> Lsdb_datalog.Rule.t list -> bool

val mem : t -> Fact.t -> bool
val cardinal : t -> int

(** Number of base (stored) facts: always [Store.cardinal] of the owning
    store, so extending with a duplicate or retracting a non-member
    cannot drift it. *)
val base_cardinal : t -> int

(** Derived (non-base) facts in derivation order. *)
val derived : t -> Fact.t list

val derived_count : t -> int
val is_derived : t -> Fact.t -> bool

(** One recorded derivation for a derived fact: rule name and premises. *)
val provenance : t -> Fact.t -> (string * Fact.t list) option

(** Semi-naive rounds needed to reach the fixpoint. *)
val rounds : t -> int

(** Derivations per rule, sorted descending — where the closure's volume
    comes from (used by the B1 report and for tuning rule sets). *)
val rule_counts : t -> (string * int) list

val iter : (Fact.t -> unit) -> t -> unit
val to_seq : t -> Fact.t Seq.t

(** Indexed pattern matching over the whole closure. *)
val match_pattern : t -> Store.pattern -> (Fact.t -> unit) -> unit

val match_list : t -> Store.pattern -> Fact.t list
val count_matches : t -> Store.pattern -> int

(** [count_pattern t pat] — the number of closure facts matching [pat],
    in O(1) and exact (see {!Lsdb_datalog.Index.count}).
    [count_matches] walks the candidates instead; this is the cheap
    probe for join ordering and frontier selection. *)
val count_pattern : t -> Store.pattern -> int

(** Exact O(1) out-degree / in-degree of an entity in the closure. *)
val out_degree : t -> Entity.t -> int

val in_degree : t -> Entity.t -> int

(** Entities appearing in some closure fact. *)
val active_entities : t -> Entity.t Seq.t

(** [entity_active t e] — does [e] appear in some closure fact? (Backed
    by the same lazily built table as {!active_entities}.) *)
val entity_active : t -> Entity.t -> bool

(** Force the lazily built caches ({!active_entities}' table) so that the
    closure can afterwards be read concurrently from several domains
    without racing a cache fill. Must be called from a single domain,
    before the fan-out, with no interleaved mutation. *)
val prepare_readers : t -> unit

(** {1 The closure's indexes} *)

(** Frozen/delta posting-tier sizes of the closure's indexes, summed over
    both strata (shell [.stats]). *)
val tier_stats : t -> Lsdb_datalog.Index.tier_stats

(** [intersect t h1 h2 emit] — gallop-intersect two posting paths of the
    closure's index, calling [emit] once per entity filling both hinges'
    free position. *)
val intersect :
  t ->
  Lsdb_datalog.Index.hinge ->
  Lsdb_datalog.Index.hinge ->
  (Entity.t -> unit) ->
  unit
